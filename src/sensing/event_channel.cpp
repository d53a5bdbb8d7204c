#include "sensing/event_channel.h"

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "dsp/audio_synth.h"
#include "dsp/beep_detector.h"

namespace bussense {

void EventChannelConfig::validate() const {
  if (!(detection_prob >= 0.0 && detection_prob <= 1.0)) {
    throw std::invalid_argument("EventChannelConfig: detection_prob outside [0, 1]");
  }
  if (!(false_beeps_per_trip >= 0.0)) {
    throw std::invalid_argument("EventChannelConfig: negative false_beeps_per_trip");
  }
}

EventChannel::EventChannel(EventChannelConfig config) : config_(config) {
  config_.validate();
}

EventChannelCalibration calibrate_event_channel(
    const AudioEnvironmentConfig& audio, const BeepDetectorConfig& detector,
    int clips, double clip_s, int taps_per_clip, std::uint64_t seed,
    double match_tolerance_s) {
  if (clips < 0 || taps_per_clip < 0 || clip_s <= 0.0) {
    throw std::invalid_argument("calibrate_event_channel: bad clip geometry");
  }
  EventChannelCalibration cal;
  cal.clips = static_cast<std::size_t>(clips);
  for (int clip = 0; clip < clips; ++clip) {
    Rng rng = Rng::stream(seed, static_cast<std::uint64_t>(clip));
    // Taps spread evenly with jitter, clear of clip edges so the detector's
    // baseline window has settled before the first burst.
    std::vector<SimTime> taps;
    taps.reserve(static_cast<std::size_t>(taps_per_clip));
    const double lead = 1.0;
    const double span = clip_s - 2.0 * lead;
    for (int k = 0; k < taps_per_clip; ++k) {
      double slot = span * (k + 0.5) / std::max(taps_per_clip, 1);
      taps.push_back(lead + slot + rng.uniform(-0.12, 0.12));
    }
    std::sort(taps.begin(), taps.end());

    BusAudioSynth synth(audio, clip_s, taps, rng);
    BeepDetector det(detector);
    const std::vector<BeepEvent> events = synth.render_into(det);

    // Greedy one-to-one matching: each event claims the nearest unclaimed tap
    // within tolerance; leftover events are spurious.
    std::vector<bool> claimed(taps.size(), false);
    for (const BeepEvent& e : events) {
      std::size_t best = taps.size();
      double best_dist = match_tolerance_s;
      for (std::size_t i = 0; i < taps.size(); ++i) {
        if (claimed[i]) continue;
        double dist = std::abs(e.time - taps[i]);
        if (dist <= best_dist) {
          best = i;
          best_dist = dist;
        }
      }
      if (best < taps.size()) {
        claimed[best] = true;
      } else {
        ++cal.spurious;
      }
    }
    cal.taps += taps.size();
    for (bool c : claimed) {
      if (c) ++cal.detected;
    }
    cal.audio_seconds += clip_s;
  }
  return cal;
}

}  // namespace bussense
