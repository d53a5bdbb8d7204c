// Tiered-fidelity metropolis simulation (DESIGN.md §15).
//
// World tops out at the paper's 22-participant testbed because every trip
// pays for the full sensing stack. LodWorld scales the same city to a
// million riders by borrowing level-of-detail tiers from game-engine
// traffic simulation: a small sampled cohort runs the *whole* pipeline
// (waveform audio → beep detector → trip recorder), a mid tier replaces
// the waveform with the calibrated event-level beep channel, and the long
// tail is synthesized in closed form straight from the traffic field.
//
//   Focus   — full audio-DSP sensing path, exactly today's pipeline.
//   Event   — calibrated beep-event channel over the same bus kinematics.
//   OnRails — closed-form trips: per-link speeds from the traffic field,
//             demand-driven dwells, uploads emitted directly.
//
// Determinism: tier assignment, per-rider trip plans and per-trip
// simulation all run on order-independent Rng::stream substreams keyed by
// (seed, rider, day, trip), so a simulated day is bit-identical at any
// thread count, and changing one tier's population cannot perturb another
// tier's riders (property-tested in tests/test_lod_world.cpp).
//
// Demand shape: a weekly load curve — weekday commute peaks from the
// demand model, flattened/scaled weekends, and depot pulses at service
// start and end — drives both how many trips each rider takes and when
// they depart, so the ingest tier sees realistic rush-hour bursts.
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <optional>
#include <vector>

#include "common/rng.h"
#include "common/sim_time.h"
#include "common/thread_pool.h"
#include "dsp/audio_synth.h"
#include "dsp/beep_detector.h"
#include "sensing/event_channel.h"
#include "sensing/trip.h"
#include "trafficsim/world.h"

namespace bussense {

class MetricsRegistry;  // obs/metrics.h

enum class FidelityTier : std::uint8_t {
  kFocus = 0,
  kEvent = 1,
  kOnRails = 2,
};

const char* to_string(FidelityTier tier);

struct LodConfig {
  /// Target fraction of riders eligible for each non-default tier; the
  /// caps below bound the actual cohort sizes.
  double focus_fraction = 0.002;
  double event_fraction = 0.05;
  /// Hard per-tier population caps. Candidates beyond the cap are demoted
  /// deterministically (smallest tier draws win, ties by rider id).
  std::size_t focus_cap = 64;
  std::size_t event_cap = 4096;

  /// Weekday mean trips per rider per day (metropolis riders mostly don't
  /// ride the bus on any given day; 0.1 ≈ one bus trip per rider-fortnight).
  double trips_per_rider_per_day = 0.10;
  /// Weekend volume scale; weekend load curves are also flattened.
  double weekend_factor = 0.55;
  /// Depot pulses: extra load factor peaking at service start/end as buses
  /// surge out of / back into depots.
  double depot_pulse_boost = 0.9;
  double depot_pulse_width_min = 25.0;
  /// Delay from a trip's last sample to its upload hitting the ingest tier.
  double upload_lag_s = 30.0;

  /// Focus tier: the audio environment and detector the sampled cohort runs.
  AudioEnvironmentConfig audio;
  BeepDetectorConfig detector;
  /// Event + OnRails tiers: the calibrated beep-delivery error model.
  EventChannelConfig event;

  std::uint64_t seed = 2026;

  /// Throws std::invalid_argument on nonsense (fractions outside [0, 1],
  /// non-positive rates, an audio config AudioEnvironmentConfig::validate
  /// rejects).
  void validate() const;
};

/// Tier population accounting, fixed at construction.
struct LodCensus {
  std::size_t riders = 0;
  std::size_t focus = 0;
  std::size_t event = 0;
  std::size_t on_rails = 0;
  /// Candidates that drew into a tier but were demoted by its cap.
  std::size_t focus_demoted = 0;
  std::size_t event_demoted = 0;
};

/// One simulated rider trip, ready for ingest replay.
struct LodTrip {
  std::int64_t rider = 0;
  int day = 0;
  int trip_index = 0;           ///< within (rider, day)
  FidelityTier tier = FidelityTier::kOnRails;
  AnnotatedTrip trip;
  SimTime arrival = 0.0;        ///< when the upload reaches the ingest tier
};

/// Generation-loss accounting across simulate_* calls. Every planned trip
/// is either emitted or counted here — nothing is dropped silently.
struct LodLoss {
  std::uint64_t planned = 0;           ///< trips drawn by rider plans
  std::uint64_t dropped_no_route = 0;  ///< 32 route retries all too short
  std::uint64_t thin = 0;              ///< empty or < min_samples after sensing
  std::uint64_t emitted = 0;
};

class LodWorld {
 public:
  /// `world` must outlive the LodWorld. Riders are 0..riders-1; rider id
  /// doubles as the upload participant id.
  LodWorld(const World& world, std::int64_t riders, LodConfig config = {});

  const World& world() const { return *world_; }
  const LodConfig& config() const { return config_; }
  std::int64_t riders() const { return riders_; }
  const LodCensus& census() const { return census_; }
  const EventChannel& event_channel() const { return event_channel_; }

  FidelityTier tier_of(std::int64_t rider) const {
    return static_cast<FidelityTier>(tiers_[static_cast<std::size_t>(rider)]);
  }

  /// Simulated days 0–4 are weekdays, 5–6 the weekend (repeating weekly).
  static bool is_weekend(int day) { return day % 7 >= 5; }

  /// The weekly demand multiplier at `t`: weekday commute peaks, flattened
  /// and scaled weekends, depot pulses at service start/end. Trip counts
  /// and departure times are both shaped by this curve.
  double load_factor(SimTime t) const;
  /// Supremum of load_factor over the week (for rejection sampling).
  double max_load_factor() const { return max_load_factor_; }

  /// Trips rider takes on `day` — a pure function of (seed, rider, day),
  /// independent of tier, so re-simulating a rider in another tier replays
  /// the same trip plan.
  int trip_count(std::int64_t rider, int day) const;

  /// Simulates every rider's trips for one day, fanned out over `pool`
  /// (serial when null). Bit-identical at any thread count; the result is
  /// sorted by (arrival, rider, trip_index) — the ingest replay order.
  std::vector<LodTrip> simulate_day(int day, ThreadPool* pool = nullptr) const {
    return simulate_day_range(day, 0, riders_, pool);
  }
  std::vector<LodTrip> simulate_day_range(int day, std::int64_t rider_begin,
                                          std::int64_t rider_end,
                                          ThreadPool* pool = nullptr) const;

  /// One rider's trips on one day, optionally forced through `tier`
  /// instead of the rider's assigned tier. The bus-run and trip-plan
  /// substreams are tier-independent, so the same rider re-simulated in
  /// Focus vs Event rides the *same* buses — only the sensing channel
  /// differs (the cross-tier accuracy property).
  std::vector<LodTrip> simulate_rider_day(
      std::int64_t rider, int day,
      std::optional<FidelityTier> tier = std::nullopt) const;

  /// Loss counters accumulated by simulate_* calls (atomic; totals are
  /// deterministic because the dropped set is).
  LodLoss loss() const;
  /// Exports loss counters as `trafficsim.lod.*` metrics.
  void export_loss(MetricsRegistry& registry) const;

  /// Canonical text serialization of a trip stream with %.17g doubles —
  /// byte-for-byte comparable across runs (save_trips' default precision
  /// is lossy at week timescales).
  static void write_stream(std::ostream& out, const std::vector<LodTrip>& trips);
  /// FNV-1a digest over the same content (raw double bits), usable at
  /// scales where materializing the text stream would be wasteful.
  static std::uint64_t stream_digest(const std::vector<LodTrip>& trips,
                                     std::uint64_t seed = 0xcbf29ce484222325ULL);

 private:
  void assign_tiers();
  Rng plan_rng(std::int64_t rider, int day) const;
  Rng trip_rng(std::int64_t rider, int day, int trip_index) const;

  struct TripPlan {
    RouteId route = kInvalidRoute;
    int board = 0;
    int alight = 1;
    SimTime depart = 0.0;
  };
  /// Draws the rider's full day plan; invalid specs keep kInvalidRoute.
  std::vector<TripPlan> plan_day(std::int64_t rider, int day) const;

  /// Focus tier's beep source: the audio detector's events over `run`'s
  /// dwells from `board` to `alight`, time-sorted.
  std::vector<World::Beep> detected_beeps(const BusRoute& route,
                                          const BusRun& run, int board,
                                          int alight, Rng& rng) const;
  AnnotatedTrip onrails_trip(const BusRoute& route, int board, int alight,
                             SimTime depart, std::int32_t participant,
                             Rng& rng) const;

  const World* world_;
  std::int64_t riders_;
  LodConfig config_;
  EventChannel event_channel_;
  std::vector<std::uint8_t> tiers_;
  /// In-bus scan site of every (route, stop index), routes in id order:
  /// OnRails samples always scan at a stop, so the position-only half of
  /// their scans is computed once here (DESIGN.md §15).
  std::vector<ScanSite> stop_sites_;
  std::vector<std::size_t> route_first_site_;  ///< by route id
  LodCensus census_;
  double max_load_factor_ = 1.0;
  mutable std::atomic<std::uint64_t> planned_{0};
  mutable std::atomic<std::uint64_t> dropped_no_route_{0};
  mutable std::atomic<std::uint64_t> thin_{0};
  mutable std::atomic<std::uint64_t> emitted_{0};
};

}  // namespace bussense
