#include "dsp/audio_synth.h"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <stdexcept>

namespace bussense {

void AudioEnvironmentConfig::validate() const {
  const double fs = sample_rate_hz;
  if (!(std::isfinite(fs) && fs > 0.0) ||
      !(std::isfinite(beep_duration_s) && beep_duration_s > 0.0)) {
    throw std::invalid_argument(
        "AudioEnvironmentConfig: sample rate and beep duration must be "
        "finite and positive");
  }
  if (tone_frequencies_hz.empty()) {
    throw std::invalid_argument("AudioEnvironmentConfig: no beep tones");
  }
  for (double f : tone_frequencies_hz) {
    if (!(f > 0.0 && f < 0.5 * fs)) {
      throw std::invalid_argument(
          "AudioEnvironmentConfig: beep tone outside (0, fs/2)");
    }
  }
  for (double level : {beep_amplitude, white_noise_rms,
                       engine_rumble_amplitude, babble_amplitude}) {
    if (!(std::isfinite(level) && level >= 0.0)) {
      throw std::invalid_argument(
          "AudioEnvironmentConfig: negative or non-finite level");
    }
  }
}

BusAudioSynth::BusAudioSynth(const AudioEnvironmentConfig& config,
                             double duration_s,
                             const std::vector<SimTime>& beep_times, Rng& rng)
    : config_(config), rng_(&rng) {
  config_.validate();
  if (!(std::isfinite(duration_s) && duration_s > 0.0)) {
    throw std::invalid_argument("BusAudioSynth: non-positive duration");
  }
  const double fs = config_.sample_rate_hz;
  n_ = static_cast<std::size_t>(duration_s * fs);
  beep_len_ = static_cast<std::size_t>(config_.beep_duration_s * fs);
  ramp_ = std::max<std::size_t>(1, beep_len_ / 10);
  for (SimTime bt : beep_times) {
    if (!(bt >= 0.0 && bt < duration_s)) continue;
    beep_starts_.push_back(static_cast<std::size_t>(bt * fs));
  }

  // Engine rumble: a few slowly drifting low-frequency components.
  std::array<double, kOsc> freq{};
  for (std::size_t k = 0; k < kRumble; ++k) {
    freq[k] = rng.uniform(40.0, 180.0);
    phase_[k] = rng.uniform(0.0, 6.28);
    amp_[k] = config_.engine_rumble_amplitude * rng.uniform(0.4, 1.0);
  }
  // Babble: broad mid-band components that come and go; modelled as a small
  // set of tones with a slow ~1 Hz amplitude modulation each, so babble is
  // non-stationary.
  for (std::size_t k = kRumble; k < kRumble + kBabble; ++k) {
    freq[k] = rng.uniform(300.0, 2200.0);
    phase_[k] = rng.uniform(0.0, 6.28);
    amp_[k] = config_.babble_amplitude * rng.uniform(0.2, 1.0);
    freq[k + kBabble] = 0.7;
    phase_[k + kBabble] = phase_[k] * 1.7;
  }
  turn_.resize(kAnchorPeriod * kOsc);
  turn_sin_.resize(kAnchorPeriod * kOsc);
  turn_cos_.resize(kAnchorPeriod * kOsc);
  for (std::size_t k = 0; k < kOsc; ++k) {
    omega_[k] = 2.0 * std::numbers::pi * freq[k];
    const double step = omega_[k] / fs;
    for (std::size_t j = 0; j < kAnchorPeriod; ++j) {
      const std::size_t at = j * kOsc + k;
      turn_[at] = static_cast<double>(j) * step;
      turn_sin_[at] = std::sin(turn_[at]);
      turn_cos_[at] = std::cos(turn_[at]);
    }
  }
}

void BusAudioSynth::anchor(double t) {
  for (std::size_t k = 0; k < kOsc; ++k) {
    arg0_[k] = omega_[k] * t + phase_[k];
    sin0_[k] = std::sin(arg0_[k]);
    cos0_[k] = std::cos(arg0_[k]);
  }
}

std::size_t BusAudioSynth::render(std::span<float> out) {
  const std::size_t count = std::min(out.size(), n_ - pos_);
  const std::size_t begin = pos_;
  const double fs = config_.sample_rate_hz;
  for (std::size_t i = 0; i < count; ++i, ++pos_) {
    const double t = static_cast<double>(pos_) / fs;
    const std::size_t j = pos_ % kAnchorPeriod;
    if (j == 0) anchor(t);
    const double* turn = &turn_[j * kOsc];
    const double* turn_sin = &turn_sin_[j * kOsc];
    const double* turn_cos = &turn_cos_[j * kOsc];
    std::array<double, kOsc> osc;
    for (std::size_t k = 0; k < kOsc; ++k) {
      // The argument the direct formula would take sin of, and its exact
      // distance from the anchor (Fast2Sum: arg >= arg0_ >= 0); `gap` is
      // how far that lies past the tabulated turn (exact: Sterbenz).
      const double arg = omega_[k] * t + phase_[k];
      const double dist = arg - arg0_[k];
      const double dist_err = -arg0_[k] - (dist - arg);
      const double gap = (dist - turn[k]) + dist_err;
      const double s = sin0_[k] * turn_cos[k] + cos0_[k] * turn_sin[k];
      const double c = cos0_[k] * turn_cos[k] - sin0_[k] * turn_sin[k];
      osc[k] = s + c * gap;
    }
    double x = rng_->normal(0.0, config_.white_noise_rms);
    for (std::size_t k = 0; k < kRumble; ++k) x += amp_[k] * osc[k];
    for (std::size_t k = kRumble; k < kRumble + kBabble; ++k) {
      const double am = 0.5 * (1.0 + osc[k + kBabble]);
      x += am * amp_[k] * osc[k];
    }
    out[i] = static_cast<float>(x);
  }

  // Overlay the beeps: dual-tone bursts with a short attack/release ramp so
  // they resemble a card-reader chirp rather than a hard-keyed tone.
  const double tone_scale =
      config_.beep_amplitude /
      static_cast<double>(config_.tone_frequencies_hz.size());
  for (std::size_t start : beep_starts_) {
    const std::size_t hi = std::min(start + beep_len_, pos_);
    for (std::size_t i = std::max(start, begin); i < hi; ++i) {
      const std::size_t k = i - start;
      const double t = static_cast<double>(k) / fs;
      double envelope = 1.0;
      if (k < ramp_) {
        envelope = static_cast<double>(k) / static_cast<double>(ramp_);
      }
      const std::size_t from_end = beep_len_ - 1 - k;
      if (from_end < ramp_) {
        envelope = std::min(envelope, static_cast<double>(from_end) /
                                          static_cast<double>(ramp_));
      }
      double tone = 0.0;
      for (double f : config_.tone_frequencies_hz) {
        tone += std::sin(2.0 * std::numbers::pi * f * t);
      }
      tone *= tone_scale;
      out[i - begin] += static_cast<float>(envelope * tone);
    }
  }
  return count;
}

std::vector<BeepEvent> BusAudioSynth::render_into(BeepDetector& detector) {
  std::vector<BeepEvent> events;
  std::array<float, kAnchorPeriod> block;
  while (const std::size_t got = render(block)) {
    const std::vector<BeepEvent> found =
        detector.process(std::span<const float>(block.data(), got));
    events.insert(events.end(), found.begin(), found.end());
  }
  return events;
}

std::vector<float> synthesize_bus_audio(const AudioEnvironmentConfig& config,
                                        double duration_s,
                                        const std::vector<SimTime>& beep_times,
                                        Rng& rng) {
  BusAudioSynth synth(config, duration_s, beep_times, rng);
  std::vector<float> audio(synth.size());
  synth.render(audio);
  return audio;
}

}  // namespace bussense
