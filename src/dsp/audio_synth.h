// Synthetic in-bus audio environment.
//
// Stands in for the phone microphone on a real bus (substitution documented
// in DESIGN.md Section 2): card-reader beeps are dual-tone bursts, the
// background mixes engine rumble, white sensor noise and crowd babble. The
// synthesiser drives the beep detector end-to-end in tests, the DSP bench,
// the quickstart example and LodWorld's Focus tier.
#pragma once

#include <array>
#include <cstddef>
#include <span>
#include <vector>

#include "common/rng.h"
#include "common/sim_time.h"
#include "dsp/beep_detector.h"

namespace bussense {

struct AudioEnvironmentConfig {
  double sample_rate_hz = 8000.0;
  /// Beep tone components and their relative amplitudes.
  std::vector<double> tone_frequencies_hz = {1000.0, 3000.0};
  double beep_amplitude = 0.30;
  double beep_duration_s = 0.10;
  /// Background levels (signal units; beep SNR follows from the ratios).
  double white_noise_rms = 0.02;
  double engine_rumble_amplitude = 0.08;  ///< low-frequency (< 200 Hz) rumble
  double babble_amplitude = 0.03;         ///< mid-band crowd noise

  /// Throws std::invalid_argument on a non-finite or non-positive sample
  /// rate or beep duration, an empty tone list, a tone outside (0, fs/2), or
  /// a negative or non-finite amplitude or noise level.
  void validate() const;
};

/// Renders one clip of bus audio in blocks. The constructor draws the
/// clip's rumble and babble tones from `rng`; render() then draws one
/// white-noise deviate per sample from it, so `rng` must outlive the
/// synth and must not be used elsewhere until the clip is done.
///
/// The 16 background oscillators (10 tones, 6 babble envelopes) are
/// phasors instead of 16 std::sin calls per sample. Every kAnchorPeriod
/// samples of the clip each oscillator is re-anchored with std::sin and
/// std::cos of the argument 2*pi*f*t + phase; sample j after the anchor
/// multiplies that phasor by a tabulated turn e^(i*j*w), w = 2*pi*f/fs, and
/// adds the first-order term for the small exactly computed gap between
/// the turn and the argument as rounded at that sample. Samples therefore
/// track the direct std::sin formula to double rounding, and they do not
/// depend on how the clip is split into blocks.
class BusAudioSynth {
 public:
  /// Re-anchor period of the phasors, and the block size render_into()
  /// streams into a detector.
  static constexpr std::size_t kAnchorPeriod = 256;

  /// A clip of `duration_s` with beeps at `beep_times` (seconds from the
  /// clip start; beeps outside the clip are ignored).
  BusAudioSynth(const AudioEnvironmentConfig& config, double duration_s,
                const std::vector<SimTime>& beep_times, Rng& rng);

  /// Samples in the whole clip.
  std::size_t size() const { return n_; }

  /// Fills the front of `out` with the clip's next samples; returns how
  /// many were written (0 once the clip is done).
  std::size_t render(std::span<float> out);

  /// Streams the rest of the clip through `detector` one block at a time,
  /// so no whole clip is held, and returns the detector's events.
  std::vector<BeepEvent> render_into(BeepDetector& detector);

 private:
  static constexpr std::size_t kRumble = 4;
  static constexpr std::size_t kBabble = 6;
  // Oscillators: rumble tones, babble tones, babble envelopes.
  static constexpr std::size_t kOsc = kRumble + 2 * kBabble;

  void anchor(double t);

  AudioEnvironmentConfig config_;
  Rng* rng_;
  std::size_t n_;
  std::size_t pos_ = 0;
  std::size_t beep_len_;
  std::size_t ramp_;
  std::vector<std::size_t> beep_starts_;  ///< in beep_times order
  std::array<double, kRumble + kBabble> amp_{};
  // Oscillator k is sin(omega_[k] * t + phase_[k]), omega_ = 2*pi*freq.
  std::array<double, kOsc> omega_{}, phase_{};
  // The last anchor: argument, sine and cosine per oscillator.
  std::array<double, kOsc> arg0_{}, sin0_{}, cos0_{};
  // The turn j samples past an anchor, j * omega_[k] / fs, with its sine
  // and cosine, at [j * kOsc + k] for j < kAnchorPeriod.
  std::vector<double> turn_, turn_sin_, turn_cos_;
};

/// Renders `duration_s` of bus audio containing beeps at `beep_times`
/// (seconds from the start of the rendered clip; beeps outside the clip are
/// ignored). Deterministic given `rng`; the whole clip through one
/// BusAudioSynth.
std::vector<float> synthesize_bus_audio(const AudioEnvironmentConfig& config,
                                        double duration_s,
                                        const std::vector<SimTime>& beep_times,
                                        Rng& rng);

}  // namespace bussense
