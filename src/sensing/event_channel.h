// Calibrated event-level beep channel (DESIGN.md §15).
//
// Day-scale simulation does not synthesize cabin audio for every rider:
// each IC-card tap is delivered to nearby phones as an *event* with a
// calibrated detection probability, plus a low rate of spurious beeps
// (sound-alike noises mid-ride). EventChannel is that error model, pulled
// out of World so the tiered-fidelity simulation (trafficsim/lod_world.h)
// can share one calibrated instance between its Event and OnRails tiers
// while the Focus tier runs the real waveform path underneath.
//
// Calibration: calibrate_event_channel() drives the full audio-DSP stack
// (dsp/audio_synth.h → dsp/beep_detector.h) on synthetic cabin clips with
// known tap times and measures the detection rate and the spurious-event
// rate — the two parameters the event channel needs. The test suite pins
// the calibrated values in a golden band so the shortcut channel cannot
// silently drift away from the waveform truth it stands in for.
//
// Draw discipline: delivered() consumes exactly one Bernoulli draw,
// spurious_count() one Poisson draw and spurious_time() one uniform draw.
// World's event beep source (World::build_trip_from_legs) makes these
// draws per tap and per leg before World::record_trip, the recorder stage
// every tier shares, draws its scans — so day-scale workloads stay
// bit-identical (fixed seeds, pinned digests in test_trafficsim and
// test_lod_world).
#pragma once

#include <cstdint>

#include "common/rng.h"
#include "common/sim_time.h"

namespace bussense {

struct EventChannelConfig {
  /// Probability that a phone on the bus detects one IC-card tap.
  double detection_prob = 0.98;
  /// Mean spurious detections per bus leg (sound-alike noises mid-ride).
  double false_beeps_per_trip = 0.06;

  /// Throws std::invalid_argument on nonsense (probability outside [0, 1],
  /// negative spurious rate).
  void validate() const;
};

/// The event-level delivery model: answers, per tap, "did this phone hear
/// it?", and per leg, "how many spurious beeps, and when?". Stateless
/// between calls; all randomness comes from the caller's Rng.
class EventChannel {
 public:
  explicit EventChannel(EventChannelConfig config = {});

  /// One tap reaches the phone? Consumes one Bernoulli draw.
  bool delivered(Rng& rng) const {
    return rng.bernoulli(config_.detection_prob);
  }

  /// Spurious detections over one bus leg. Consumes one Poisson draw.
  int spurious_count(Rng& rng) const {
    return rng.poisson(config_.false_beeps_per_trip);
  }

  /// When a spurious beep fires within the leg window [t0, t1). Consumes
  /// one uniform draw.
  SimTime spurious_time(SimTime t0, SimTime t1, Rng& rng) const {
    return rng.uniform(t0, t1);
  }

  const EventChannelConfig& config() const { return config_; }

 private:
  EventChannelConfig config_;
};

// ---------------------------------------------------------------- calibration

struct AudioEnvironmentConfig;  // dsp/audio_synth.h
struct BeepDetectorConfig;      // dsp/beep_detector.h

/// What a calibration run measured from the waveform path.
struct EventChannelCalibration {
  std::size_t clips = 0;            ///< cabin clips rendered
  std::size_t taps = 0;             ///< true taps across all clips
  std::size_t detected = 0;         ///< taps matched by a detector event
  std::size_t spurious = 0;         ///< detector events matching no tap
  double audio_seconds = 0.0;       ///< total rendered audio

  /// Measured per-tap detection probability.
  double detection_prob() const {
    return taps > 0 ? static_cast<double>(detected) / static_cast<double>(taps)
                    : 0.0;
  }
  /// Measured spurious-event rate, scaled to a typical leg duration.
  double false_beeps_per_trip(double typical_trip_s) const {
    return audio_seconds > 0.0
               ? static_cast<double>(spurious) / audio_seconds * typical_trip_s
               : 0.0;
  }
  /// The calibrated channel parameters for legs of `typical_trip_s`.
  EventChannelConfig to_config(double typical_trip_s) const {
    EventChannelConfig config;
    config.detection_prob = detection_prob();
    config.false_beeps_per_trip = false_beeps_per_trip(typical_trip_s);
    return config;
  }
};

/// Runs `clips` synthetic cabin clips of `clip_s` seconds, each carrying
/// `taps_per_clip` taps at deterministic jittered positions, through the
/// audio synthesiser and the Goertzel beep detector, and counts matches
/// within ±`match_tolerance_s`. Deterministic given `seed`.
EventChannelCalibration calibrate_event_channel(
    const AudioEnvironmentConfig& audio, const BeepDetectorConfig& detector,
    int clips, double clip_s, int taps_per_clip, std::uint64_t seed,
    double match_tolerance_s = 0.15);

}  // namespace bussense
