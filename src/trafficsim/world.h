// World: the full simulated testbed, wired together.
//
// Owns the city, the cellular plant, the ground-truth traffic field, the
// demand model, the bus simulator, the taxi AVL feed and the participant
// population; produces bus runs and the annotated participant trips the
// backend server consumes. This is the substitute for the paper's
// Singapore deployment (DESIGN.md Section 2).
//
// Beep channel: day-scale simulation uses the *event-level* channel — each
// IC-card tap is delivered to nearby phones with a calibrated detection
// probability, plus a low rate of spurious beeps. The audio-level channel
// (dsp/audio_synth.h + dsp/beep_detector.h) validates that calibration in
// tests and the quickstart example.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "cellular/deployment.h"
#include "cellular/radio_environment.h"
#include "cellular/scanner.h"
#include "citynet/city.h"
#include "citynet/city_generator.h"
#include "common/rng.h"
#include "sensing/accel_model.h"
#include "sensing/event_channel.h"
#include "sensing/trip.h"
#include "sensing/trip_recorder.h"
#include "trafficsim/bus_sim.h"
#include "trafficsim/demand.h"
#include "trafficsim/taxi_feed.h"
#include "trafficsim/traffic_field.h"

namespace bussense {

struct WorldConfig {
  CityConfig city;
  DeploymentConfig towers;
  PropagationConfig propagation;
  ScannerConfig scanner;
  TrafficFieldConfig traffic;
  DemandConfig demand;
  BusSimConfig bus;
  TaxiFeedConfig taxi;
  TripRecorderConfig recorder;
  AccelModelConfig accel;

  double headway_s = 600.0;       ///< bus departure interval per route
  double service_start_h = 6.5;
  double service_end_h = 21.0;
  int participant_count = 22;     ///< the paper's population
  double trips_per_participant_per_day = 4.0;
  double beep_detection_prob = 0.98;  ///< event-level channel calibration
  double false_beeps_per_trip = 0.06; ///< spurious detections mid-ride
  /// Fraction of cell towers renumbered per day (network maintenance /
  /// re-sectoring). Non-zero churn slowly invalidates a static fingerprint
  /// database — the scenario the online DB updater defends against.
  double tower_churn_per_day = 0.0;
  /// One-off maintenance event: on `tower_churn_event_day` the operator
  /// renumbers `tower_churn_event_fraction` of all towers at once.
  int tower_churn_event_day = -1;
  double tower_churn_event_fraction = 0.0;
  std::uint64_t seed = 42;
};

class World {
 public:
  explicit World(WorldConfig config = {});

  const WorldConfig& config() const { return config_; }
  const City& city() const { return *city_; }
  const RadioEnvironment& radio() const { return *radio_; }
  const CellScanner& scanner() const { return scanner_; }
  const TrafficField& traffic() const { return *traffic_; }
  const DemandModel& demand() const { return *demand_; }
  const TaxiFeed& taxis() const { return *taxis_; }
  const BusSimulator& buses() const { return *bus_sim_; }
  const AccelModel& accel() const { return accel_model_; }
  /// The config-derived event-level beep channel used for every simulated
  /// trip. LOD runs substitute a calibrated channel per tier.
  const EventChannel& event_channel() const { return event_channel_; }

  /// One full service day of every directed route, with participant trips.
  /// `intensity` scales trips per participant (1 = normal, ~3 = the paper's
  /// incentivised intensive phase).
  struct DayResult {
    std::vector<BusRun> runs;
    std::vector<AnnotatedTrip> trips;
  };
  DayResult simulate_day(int day, double intensity, Rng& rng) const;

  /// A single annotated participant trip riding `route` from stop index
  /// `board` to `alight` on a bus departing the terminal at `bus_depart`.
  /// `channel` overrides the beep-delivery model (null = the world's own);
  /// the bus-run and sensing draw sequence is channel-independent up to the
  /// channel's own draws, so runs with identical channel parameters are
  /// bit-identical whichever instance carries them.
  AnnotatedTrip simulate_single_trip(const BusRoute& route, int board,
                                     int alight, SimTime bus_depart, Rng& rng,
                                     std::int32_t participant = 0,
                                     const EventChannel* channel = nullptr) const;

  /// A transfer trip: ride `first` from `board_a` to `alight_a`, walk to the
  /// nearby `board_b` stop of `second`, and continue to `alight_b`. The
  /// second bus is timetabled to pick the rider up within the recorder's
  /// trip timeout, so the phone uploads one concatenated trip — the
  /// multi-route case of the paper's Eq. 2.
  AnnotatedTrip simulate_transfer_trip(const BusRoute& first, int board_a,
                                       int alight_a, const BusRoute& second,
                                       int board_b, int alight_b,
                                       SimTime first_depart, Rng& rng) const;

  /// Stop-index pair (i on `a`, j on `b`, with usable upstream/downstream
  /// spans) whose stops are closest — a natural transfer point.
  std::pair<int, int> find_transfer_stops(const BusRoute& a,
                                          const BusRoute& b) const;

  /// One trip per bus run over a whole day — the paper's "encourage the bus
  /// drivers to install our app to bootstrap the system" deployment mode.
  std::vector<AnnotatedTrip> simulate_driver_day(int day, Rng& rng) const;

  /// One survey scan at a stop (used to build/evaluate fingerprint DBs).
  /// `when` determines which tower-churn epoch applies.
  Fingerprint scan_stop(StopId stop, Rng& rng, bool in_bus = false,
                        SimTime when = 0.0) const;

  /// Rewrites cell ids for towers that have churned by time `when`.
  Fingerprint apply_churn(Fingerprint fingerprint, SimTime when) const;

  /// GPS fixes along a recorded bus run every `period_s` (baseline input).
  std::vector<std::pair<SimTime, Point>> gps_trace(const BusRun& run,
                                                   double period_s,
                                                   Rng& rng) const;

  /// One beep a rider's phone hears: when, where the bus was, and the stop
  /// whose tap made it (kInvalidStop for a spurious beep).
  struct Beep {
    SimTime time = 0.0;
    Point position;
    StopId true_stop = kInvalidStop;
  };

  /// The phone side of every simulated ride, whatever made its beeps (the
  /// event channel here, the audio detector in LodWorld's Focus tier).
  /// Feeds the time-sorted `beeps` through a TripRecorder whose scans are
  /// in-bus scans at each beep's position with tower churn applied, then
  /// returns the longest upload. Its truth is `header` plus the true stop of
  /// each of that upload's own scans. Draws from `rng` in recorder order:
  /// one accel draw per trip start, one scan per sample. Returns an empty
  /// trip when the recorder uploads nothing.
  AnnotatedTrip record_trip(const std::vector<Beep>& beeps,
                            const TripGroundTruth& header,
                            std::int32_t participant, Rng& rng) const;

 private:
  /// One bus leg of a (possibly multi-leg) participant trip.
  struct TripLeg {
    const BusRoute* route = nullptr;
    const BusRun* run = nullptr;
    int board = -1;
    int alight = -1;
  };

  /// The annotated trip of one rider across consecutive bus legs, with
  /// beeps drawn from `channel` (null = the world's own).
  AnnotatedTrip build_trip_from_legs(const std::vector<TripLeg>& legs,
                                     std::int32_t participant, Rng& rng,
                                     const EventChannel* channel = nullptr) const;

  WorldConfig config_;
  std::unique_ptr<City> city_;
  std::unique_ptr<RadioEnvironment> radio_;
  CellScanner scanner_;
  std::unique_ptr<TrafficField> traffic_;
  std::unique_ptr<DemandModel> demand_;
  std::unique_ptr<TaxiFeed> taxis_;
  std::unique_ptr<BusSimulator> bus_sim_;
  AccelModel accel_model_;
  EventChannel event_channel_;
};

}  // namespace bussense
