// Unit tests for the DSP stack: Goertzel, FFT, sliding window, beep
// detection on synthesised bus audio.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numbers>
#include <vector>

#include "common/rng.h"
#include "dsp/audio_synth.h"
#include "dsp/beep_detector.h"
#include "dsp/fft.h"
#include "dsp/goertzel.h"
#include "dsp/sliding_window.h"

namespace bussense {
namespace {

std::vector<float> make_tone(double freq, double fs, std::size_t n,
                             double amp = 1.0) {
  std::vector<float> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = static_cast<float>(
        amp * std::sin(2.0 * std::numbers::pi * freq * i / fs));
  }
  return out;
}

// ---------------------------------------------------------------- goertzel

TEST(Goertzel, DetectsItsOwnBin) {
  const auto tone = make_tone(1000.0, 8000.0, 256);
  const double on = goertzel_power(tone, 8000.0, 1000.0);
  const double off = goertzel_power(tone, 8000.0, 3000.0);
  EXPECT_GT(on, 50.0 * off);
}

TEST(Goertzel, PowerScalesWithAmplitudeSquared) {
  const auto a1 = make_tone(1000.0, 8000.0, 256, 1.0);
  const auto a2 = make_tone(1000.0, 8000.0, 256, 2.0);
  const double p1 = goertzel_power(a1, 8000.0, 1000.0);
  const double p2 = goertzel_power(a2, 8000.0, 1000.0);
  EXPECT_NEAR(p2 / p1, 4.0, 0.01);
}

TEST(Goertzel, RejectsBadArguments) {
  const auto tone = make_tone(1000.0, 8000.0, 64);
  EXPECT_THROW(goertzel_power({}, 8000.0, 1000.0), std::invalid_argument);
  EXPECT_THROW(goertzel_power(tone, 8000.0, 0.0), std::invalid_argument);
  EXPECT_THROW(goertzel_power(tone, 8000.0, 4000.0), std::invalid_argument);
  EXPECT_THROW(goertzel_power(tone, 8000.0, 4500.0), std::invalid_argument);
}

TEST(Goertzel, MultiFrequencyMatchesSingle) {
  const auto tone = make_tone(1000.0, 8000.0, 256);
  const std::vector<double> freqs{500.0, 1000.0, 3000.0};
  const auto powers = goertzel_powers(tone, 8000.0, freqs);
  ASSERT_EQ(powers.size(), 3u);
  for (std::size_t i = 0; i < freqs.size(); ++i) {
    EXPECT_DOUBLE_EQ(powers[i], goertzel_power(tone, 8000.0, freqs[i]));
  }
}

TEST(GoertzelFilter, StreamingMatchesBatch) {
  const auto tone = make_tone(1234.0, 8000.0, 200);
  GoertzelFilter filter(8000.0, 1234.0);
  for (float s : tone) filter.push(s);
  EXPECT_NEAR(filter.power(), goertzel_power(tone, 8000.0, 1234.0), 1e-9);
  EXPECT_EQ(filter.samples_seen(), 200u);
}

TEST(GoertzelFilter, ResetClearsState) {
  GoertzelFilter filter(8000.0, 1000.0);
  for (float s : make_tone(1000.0, 8000.0, 100)) filter.push(s);
  filter.reset();
  EXPECT_EQ(filter.samples_seen(), 0u);
  EXPECT_DOUBLE_EQ(filter.power(), 0.0);
}

TEST(Goertzel, OpCountModel) {
  EXPECT_EQ(goertzel_op_count(240, 2), 480u);
  EXPECT_EQ(goertzel_op_count(0, 5), 0u);
}

// --------------------------------------------------------------------- fft

TEST(Fft, NextPow2) {
  EXPECT_EQ(next_pow2(1), 1u);
  EXPECT_EQ(next_pow2(2), 2u);
  EXPECT_EQ(next_pow2(3), 4u);
  EXPECT_EQ(next_pow2(240), 256u);
  EXPECT_EQ(next_pow2(256), 256u);
}

TEST(Fft, RejectsNonPowerOfTwo) {
  std::vector<std::complex<double>> data(3);
  EXPECT_THROW(fft_inplace(data), std::invalid_argument);
  std::vector<std::complex<double>> one(1);
  EXPECT_THROW(fft_inplace(one), std::invalid_argument);
}

TEST(Fft, ImpulseHasFlatSpectrum) {
  std::vector<std::complex<double>> data(8, 0.0);
  data[0] = 1.0;
  fft_inplace(data);
  for (const auto& c : data) EXPECT_NEAR(std::abs(c), 1.0, 1e-12);
}

TEST(Fft, ToneConcentratesInItsBin) {
  // 1 kHz at fs 8 kHz with a 256-point FFT: exactly bin 32.
  const auto tone = make_tone(1000.0, 8000.0, 256);
  const auto power = power_spectrum(tone);
  std::size_t argmax = 0;
  for (std::size_t k = 1; k < power.size(); ++k) {
    if (power[k] > power[argmax]) argmax = k;
  }
  EXPECT_EQ(argmax, 32u);
}

TEST(Fft, ParsevalHolds) {
  Rng rng(11);
  std::vector<float> x(256);
  for (float& v : x) v = static_cast<float>(rng.normal(0.0, 1.0));
  double time_energy = 0.0;
  for (float v : x) time_energy += static_cast<double>(v) * v;
  const auto spec = fft_real(x);
  double freq_energy = 0.0;
  for (const auto& c : spec) freq_energy += std::norm(c);
  EXPECT_NEAR(freq_energy / spec.size(), time_energy, 1e-6);
}

TEST(Fft, OpCountGrowsNLogN) {
  EXPECT_EQ(fft_op_count(256), 1024u);  // 128 * 8
  EXPECT_EQ(fft_op_count(240), 1024u);  // padded to 256
  EXPECT_EQ(fft_op_count(1024), 5120u);
}

// Cross-validation: Goertzel and FFT agree on tone powers across frequencies
// that fall exactly on FFT bins (fs = 8 kHz, N = 256 -> 31.25 Hz bins).
class GoertzelVsFft : public ::testing::TestWithParam<double> {};

TEST_P(GoertzelVsFft, AgreeOnBinPower) {
  const double freq = GetParam();
  const auto tone = make_tone(freq, 8000.0, 256, 0.7);
  const double g = goertzel_power(tone, 8000.0, freq);
  const double f = fft_bin_power(tone, 8000.0, freq);
  EXPECT_NEAR(g, f, 0.02 * std::max(g, f) + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(OnBinFrequencies, GoertzelVsFft,
                         ::testing::Values(250.0, 500.0, 1000.0, 1500.0,
                                           2000.0, 2400.0 - 2400.0 + 2500.0,
                                           3000.0, 3500.0));

// ------------------------------------------------------------------ window

TEST(SlidingWindow, MeanOverWindow) {
  SlidingWindow w(3);
  w.push(1.0);
  w.push(2.0);
  w.push(3.0);
  EXPECT_DOUBLE_EQ(w.mean(), 2.0);
  w.push(7.0);  // evicts 1.0
  EXPECT_DOUBLE_EQ(w.mean(), 4.0);
  EXPECT_TRUE(w.full());
}

TEST(SlidingWindow, StddevMatchesDefinition) {
  SlidingWindow w(4);
  for (double x : {2.0, 4.0, 6.0, 8.0}) w.push(x);
  EXPECT_NEAR(w.stddev(), std::sqrt(20.0 / 3.0), 1e-12);
}

TEST(SlidingWindow, ClearResets) {
  SlidingWindow w(2);
  w.push(5.0);
  w.clear();
  EXPECT_EQ(w.size(), 0u);
  EXPECT_DOUBLE_EQ(w.mean(), 0.0);
}

TEST(SlidingWindow, RejectsZeroCapacity) {
  EXPECT_THROW(SlidingWindow(0), std::invalid_argument);
}

// ----------------------------------------------------------- beep detector

AudioEnvironmentConfig quiet_bus() {
  AudioEnvironmentConfig cfg;
  return cfg;
}

TEST(BeepDetector, DetectsSingleBeep) {
  Rng rng(21);
  const auto audio = synthesize_bus_audio(quiet_bus(), 10.0, {5.0}, rng);
  BeepDetector detector;
  const auto events = detector.process(audio);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_NEAR(events[0].time, 5.0, 0.08);
}

TEST(BeepDetector, NoFalsePositivesInPlainNoise) {
  Rng rng(22);
  const auto audio = synthesize_bus_audio(quiet_bus(), 20.0, {}, rng);
  BeepDetector detector;
  EXPECT_TRUE(detector.process(audio).empty());
}

TEST(BeepDetector, DetectsBeepTrainWithCorrectCount) {
  Rng rng(23);
  const std::vector<SimTime> beeps{2.0, 3.2, 4.4, 8.0, 9.1};
  const auto audio = synthesize_bus_audio(quiet_bus(), 12.0, beeps, rng);
  BeepDetector detector;
  const auto events = detector.process(audio);
  ASSERT_EQ(events.size(), beeps.size());
  for (std::size_t i = 0; i < beeps.size(); ++i) {
    EXPECT_NEAR(events[i].time, beeps[i], 0.08);
  }
}

TEST(BeepDetector, RefractoryCollapsesOnePhysicalBeep) {
  // One long beep (two overlapping bursts 50 ms apart) must yield one event.
  Rng rng(24);
  const auto audio = synthesize_bus_audio(quiet_bus(), 6.0, {3.0, 3.05}, rng);
  BeepDetector detector;
  EXPECT_EQ(detector.process(audio).size(), 1u);
}

TEST(BeepDetector, ChunkedProcessingMatchesWholeClip) {
  Rng rng1(25), rng2(25);
  const auto audio1 = synthesize_bus_audio(quiet_bus(), 10.0, {4.0, 7.0}, rng1);
  const auto audio2 = synthesize_bus_audio(quiet_bus(), 10.0, {4.0, 7.0}, rng2);
  BeepDetector whole, chunked;
  const auto events_whole = whole.process(audio1);
  std::vector<BeepEvent> events_chunked;
  const std::size_t chunk = 333;
  for (std::size_t i = 0; i < audio2.size(); i += chunk) {
    const std::size_t n = std::min(chunk, audio2.size() - i);
    const auto ev = chunked.process(
        std::span<const float>(audio2.data() + i, n));
    events_chunked.insert(events_chunked.end(), ev.begin(), ev.end());
  }
  ASSERT_EQ(events_whole.size(), events_chunked.size());
  for (std::size_t i = 0; i < events_whole.size(); ++i) {
    EXPECT_DOUBLE_EQ(events_whole[i].time, events_chunked[i].time);
  }
}

TEST(BeepDetector, OriginShiftsEventTimes) {
  Rng rng(26);
  const auto audio = synthesize_bus_audio(quiet_bus(), 6.0, {2.0}, rng);
  BeepDetector detector;
  detector.set_origin(100.0);
  const auto events = detector.process(audio);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_NEAR(events[0].time, 102.0, 0.08);
}

TEST(BeepDetector, LondonSingleToneConfigWorks) {
  // Oyster readers: single 2.4 kHz tone.
  AudioEnvironmentConfig env = quiet_bus();
  env.tone_frequencies_hz = {2400.0};
  BeepDetectorConfig det;
  det.tone_frequencies_hz = {2400.0};
  Rng rng(27);
  const auto audio = synthesize_bus_audio(env, 8.0, {4.0}, rng);
  BeepDetector detector(det);
  const auto events = detector.process(audio);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_NEAR(events[0].time, 4.0, 0.08);
}

TEST(BeepDetector, SingaporeDetectorIgnoresLondonBeep) {
  // A 2.4 kHz-only beep must not trigger the dual 1k+3k detector: both
  // monitored bands have to jump.
  AudioEnvironmentConfig env = quiet_bus();
  env.tone_frequencies_hz = {2400.0};
  Rng rng(28);
  const auto audio = synthesize_bus_audio(env, 8.0, {4.0}, rng);
  BeepDetector detector;  // default 1 kHz + 3 kHz
  EXPECT_TRUE(detector.process(audio).empty());
}

TEST(BeepDetector, DetectsInLoudCabin) {
  AudioEnvironmentConfig env = quiet_bus();
  env.white_noise_rms = 0.04;
  env.engine_rumble_amplitude = 0.15;
  env.babble_amplitude = 0.05;
  Rng rng(29);
  const auto audio = synthesize_bus_audio(env, 10.0, {5.0}, rng);
  BeepDetector detector;
  const auto events = detector.process(audio);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_NEAR(events[0].time, 5.0, 0.08);
}

TEST(BeepDetector, RejectsBadConfig) {
  BeepDetectorConfig cfg;
  cfg.tone_frequencies_hz.clear();
  EXPECT_THROW(BeepDetector{cfg}, std::invalid_argument);
  BeepDetectorConfig cfg2;
  cfg2.frame_seconds = 0.0;
  EXPECT_THROW(BeepDetector{cfg2}, std::invalid_argument);
}

// Detection-rate calibration backing the event-level beep channel: the
// world model assumes ~98% per-tap detection; verify the audio path clears
// that bar under nominal cabin noise.
TEST(BeepDetector, DetectionRateSupportsEventLevelCalibration) {
  Rng rng(30);
  int detected = 0;
  const int trials = 40;
  for (int i = 0; i < trials; ++i) {
    const auto audio = synthesize_bus_audio(quiet_bus(), 4.0, {2.0}, rng);
    BeepDetector detector;
    detected += detector.process(audio).empty() ? 0 : 1;
  }
  EXPECT_GE(detected, static_cast<int>(trials * 0.95));
}

// ------------------------------------------------------------- audio synth

TEST(AudioSynth, LengthMatchesDuration) {
  Rng rng(31);
  const auto audio = synthesize_bus_audio(quiet_bus(), 2.5, {}, rng);
  EXPECT_EQ(audio.size(), 20000u);
}

TEST(AudioSynth, RejectsNonPositiveDuration) {
  Rng rng(32);
  EXPECT_THROW(synthesize_bus_audio(quiet_bus(), 0.0, {}, rng),
               std::invalid_argument);
}

TEST(AudioSynth, BeepRaisesTonePower) {
  Rng rng(33);
  const auto cfg = quiet_bus();
  const auto audio = synthesize_bus_audio(cfg, 4.0, {2.0}, rng);
  const auto fs = cfg.sample_rate_hz;
  const std::span<const float> during(audio.data() + static_cast<int>(2.02 * fs),
                                      400);
  const std::span<const float> before(audio.data() + static_cast<int>(1.0 * fs),
                                      400);
  EXPECT_GT(goertzel_power(during, fs, 1000.0),
            10.0 * goertzel_power(before, fs, 1000.0));
  EXPECT_GT(goertzel_power(during, fs, 3000.0),
            10.0 * goertzel_power(before, fs, 3000.0));
}

TEST(AudioSynth, BeepsOutsideClipIgnored) {
  Rng rng(34);
  const auto audio = synthesize_bus_audio(quiet_bus(), 2.0, {-1.0, 5.0}, rng);
  BeepDetector detector;
  EXPECT_TRUE(detector.process(audio).empty());
}

TEST(AudioSynth, DeterministicGivenSeed) {
  Rng rng1(35), rng2(35);
  const auto a = synthesize_bus_audio(quiet_bus(), 1.0, {0.5}, rng1);
  const auto b = synthesize_bus_audio(quiet_bus(), 1.0, {0.5}, rng2);
  EXPECT_EQ(a, b);
}

// Beeps overlapping each other, straddling block edges and the clip end.
const std::vector<SimTime> kBlockBeeps{0.0, 1.0, 1.05, 3.99, 6.2, 11.95, 12.5};

std::vector<float> render_in_blocks(std::size_t block, Rng& rng) {
  BusAudioSynth synth(quiet_bus(), 12.0, kBlockBeeps, rng);
  std::vector<float> audio;
  std::vector<float> buffer(block);
  while (const std::size_t got = synth.render(buffer)) {
    audio.insert(audio.end(), buffer.begin(), buffer.begin() + got);
  }
  return audio;
}

TEST(AudioSynth, BlockRenderingMatchesWholeClip) {
  Rng whole_rng(36);
  const auto whole = synthesize_bus_audio(quiet_bus(), 12.0, kBlockBeeps,
                                          whole_rng);
  const std::uint64_t whole_next = whole_rng.engine()();
  for (std::size_t block : {1u, 80u, 256u, 4097u}) {
    Rng rng(36);
    const auto blocks = render_in_blocks(block, rng);
    ASSERT_EQ(blocks.size(), whole.size()) << "block " << block;
    for (std::size_t i = 0; i < whole.size(); ++i) {
      ASSERT_EQ(std::bit_cast<std::uint32_t>(blocks[i]),
                std::bit_cast<std::uint32_t>(whole[i]))
          << "block " << block << " sample " << i;
    }
    EXPECT_EQ(rng.engine()(), whole_next) << "block " << block;
  }
}

TEST(AudioSynth, DetectorFedBlockByBlockMatchesWholeClip) {
  const std::vector<SimTime> beeps{2.0, 3.2, 4.4, 8.0, 9.1};
  Rng whole_rng(37), block_rng(37);
  const auto audio = synthesize_bus_audio(quiet_bus(), 12.0, beeps, whole_rng);
  BeepDetector whole;
  const auto expected = whole.process(audio);
  ASSERT_EQ(expected.size(), beeps.size());

  BusAudioSynth synth(quiet_bus(), 12.0, beeps, block_rng);
  BeepDetector streamed;
  const auto events = synth.render_into(streamed);
  ASSERT_EQ(events.size(), expected.size());
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].time, expected[i].time);
    EXPECT_EQ(events[i].strength, expected[i].strength);
  }
  EXPECT_EQ(block_rng.engine()(), whole_rng.engine()());
}

// Distance in representable floats (0 for equal values, 1 for neighbours).
std::int64_t float_ulps(float a, float b) {
  const auto ordered = [](float f) {
    const auto bits = static_cast<std::int64_t>(std::bit_cast<std::int32_t>(f));
    return bits < 0 ? std::numeric_limits<std::int32_t>::min() - bits : bits;
  };
  return std::abs(ordered(a) - ordered(b));
}

// The pre-phasor synthesiser: 16 std::sin calls per sample. The phasor
// renderer must stay within one float ulp of it over a long clip, so its
// rounding cannot drift with clip length.
std::vector<float> direct_sin_audio(const AudioEnvironmentConfig& config,
                                    double duration_s,
                                    const std::vector<SimTime>& beep_times,
                                    Rng& rng) {
  const double fs = config.sample_rate_hz;
  const auto n = static_cast<std::size_t>(duration_s * fs);
  std::vector<float> audio(n, 0.0f);
  struct Tone {
    double freq, phase, amp;
  };
  std::vector<Tone> rumble, babble;
  for (int i = 0; i < 4; ++i) {
    rumble.push_back(Tone{rng.uniform(40.0, 180.0), rng.uniform(0.0, 6.28),
                          config.engine_rumble_amplitude * rng.uniform(0.4, 1.0)});
  }
  for (int i = 0; i < 6; ++i) {
    babble.push_back(Tone{rng.uniform(300.0, 2200.0), rng.uniform(0.0, 6.28),
                          config.babble_amplitude * rng.uniform(0.2, 1.0)});
  }
  for (std::size_t i = 0; i < n; ++i) {
    const double t = static_cast<double>(i) / fs;
    double x = rng.normal(0.0, config.white_noise_rms);
    for (const Tone& tone : rumble) {
      x += tone.amp * std::sin(2.0 * std::numbers::pi * tone.freq * t + tone.phase);
    }
    for (const Tone& tone : babble) {
      const double am = 0.5 * (1.0 + std::sin(2.0 * std::numbers::pi * 0.7 * t +
                                              tone.phase * 1.7));
      x += am * tone.amp *
           std::sin(2.0 * std::numbers::pi * tone.freq * t + tone.phase);
    }
    audio[i] = static_cast<float>(x);
  }
  const auto beep_len = static_cast<std::size_t>(config.beep_duration_s * fs);
  const std::size_t ramp = std::max<std::size_t>(1, beep_len / 10);
  for (SimTime bt : beep_times) {
    if (bt < 0.0 || bt >= duration_s) continue;
    const auto start = static_cast<std::size_t>(bt * fs);
    for (std::size_t k = 0; k < beep_len && start + k < n; ++k) {
      const double t = static_cast<double>(k) / fs;
      double envelope = 1.0;
      if (k < ramp) envelope = static_cast<double>(k) / static_cast<double>(ramp);
      const std::size_t from_end = beep_len - 1 - k;
      if (from_end < ramp) {
        envelope = std::min(envelope,
                            static_cast<double>(from_end) / static_cast<double>(ramp));
      }
      double tone = 0.0;
      for (double f : config.tone_frequencies_hz) {
        tone += std::sin(2.0 * std::numbers::pi * f * t);
      }
      tone *= config.beep_amplitude / static_cast<double>(
                                          config.tone_frequencies_hz.size());
      audio[start + k] += static_cast<float>(envelope * tone);
    }
  }
  return audio;
}

TEST(AudioSynth, PhasorsStayWithinOneUlpOfDirectSinOverLongClip) {
  std::vector<SimTime> beeps;
  for (double t = 1.0; t < 119.0; t += 2.3) beeps.push_back(t);
  Rng direct_rng(38), phasor_rng(38);
  const auto direct = direct_sin_audio(quiet_bus(), 120.0, beeps, direct_rng);
  const auto phasor = synthesize_bus_audio(quiet_bus(), 120.0, beeps, phasor_rng);
  ASSERT_EQ(phasor.size(), direct.size());
  std::int64_t worst = 0;
  for (std::size_t i = 0; i < direct.size(); ++i) {
    worst = std::max(worst, float_ulps(phasor[i], direct[i]));
  }
  EXPECT_LE(worst, 1);
  EXPECT_EQ(phasor_rng.engine()(), direct_rng.engine()());
}

TEST(AudioSynth, RejectsBadConfig) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<AudioEnvironmentConfig> bad;
  auto with = [&](auto mutate) {
    AudioEnvironmentConfig cfg = quiet_bus();
    mutate(cfg);
    bad.push_back(cfg);
  };
  with([](auto& c) { c.tone_frequencies_hz.clear(); });
  with([](auto& c) { c.tone_frequencies_hz = {0.0}; });
  with([](auto& c) { c.tone_frequencies_hz = {1000.0, 4000.0}; });
  with([](auto& c) { c.tone_frequencies_hz = {-1000.0}; });
  with([&](auto& c) { c.tone_frequencies_hz = {nan}; });
  for (double v : {0.0, -8000.0, nan, inf}) {
    with([&](auto& c) { c.sample_rate_hz = v; });
  }
  for (double v : {0.0, -0.1, nan, inf}) {
    with([&](auto& c) { c.beep_duration_s = v; });
  }
  for (double v : {-0.1, nan, inf}) {
    with([&](auto& c) { c.beep_amplitude = v; });
    with([&](auto& c) { c.white_noise_rms = v; });
    with([&](auto& c) { c.engine_rumble_amplitude = v; });
    with([&](auto& c) { c.babble_amplitude = v; });
  }
  for (const AudioEnvironmentConfig& cfg : bad) {
    EXPECT_THROW(cfg.validate(), std::invalid_argument);
    Rng rng(39);
    EXPECT_THROW(synthesize_bus_audio(cfg, 1.0, {0.5}, rng),
                 std::invalid_argument);
    EXPECT_THROW(BusAudioSynth(cfg, 1.0, {0.5}, rng), std::invalid_argument);
  }
  EXPECT_NO_THROW(quiet_bus().validate());
  Rng rng(39);
  EXPECT_THROW(synthesize_bus_audio(quiet_bus(), nan, {}, rng),
               std::invalid_argument);
}

}  // namespace
}  // namespace bussense
