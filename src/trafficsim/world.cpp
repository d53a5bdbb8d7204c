#include "trafficsim/world.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <stdexcept>

#include "sensing/gps_model.h"

namespace bussense {

World::World(WorldConfig config) : config_(std::move(config)) {
  Rng rng(config_.seed);
  city_ = std::make_unique<City>(generate_city(config_.city));
  Rng tower_rng = rng.fork();
  radio_ = std::make_unique<RadioEnvironment>(
      deploy_towers(city_->region(), config_.towers, tower_rng),
      config_.propagation, rng.fork().engine()());
  scanner_ = CellScanner(config_.scanner);
  traffic_ = std::make_unique<TrafficField>(city_->network(), config_.traffic,
                                            rng.fork().engine()());
  demand_ = std::make_unique<DemandModel>(config_.demand, city_->stops().size(),
                                          rng.fork().engine()());
  taxis_ = std::make_unique<TaxiFeed>(*traffic_, config_.taxi,
                                      rng.fork().engine()());
  bus_sim_ = std::make_unique<BusSimulator>(*city_, *traffic_, *demand_,
                                            config_.bus);
  accel_model_ = AccelModel(config_.accel);
  EventChannelConfig channel;
  channel.detection_prob = config_.beep_detection_prob;
  channel.false_beeps_per_trip = config_.false_beeps_per_trip;
  event_channel_ = EventChannel(channel);
}

Fingerprint World::scan_stop(StopId stop, Rng& rng, bool in_bus,
                             SimTime when) const {
  return apply_churn(
      scanner_.scan_fingerprint(*radio_, city_->stop(stop).position, rng, in_bus),
      when);
}

Fingerprint World::apply_churn(Fingerprint fingerprint, SimTime when) const {
  const bool gradual = config_.tower_churn_per_day > 0.0;
  const bool event = config_.tower_churn_event_day >= 0 &&
                     config_.tower_churn_event_fraction > 0.0;
  if (!gradual && !event) return fingerprint;
  const int day = day_index(when);
  for (CellId& id : fingerprint.cells) {
    // Count deterministic churn events for this tower up to `day`; each one
    // renumbers the cell (a large offset stands in for a fresh id).
    int epoch = 0;
    if (gradual) {
      for (int d = 1; d <= day; ++d) {
        const std::uint64_t h =
            mix64(config_.seed ^ (static_cast<std::uint64_t>(id) << 20) ^
                      static_cast<std::uint64_t>(d));
        const double u = static_cast<double>(h >> 11) / 9007199254740992.0;
        if (u < config_.tower_churn_per_day) ++epoch;
      }
    }
    if (event && day >= config_.tower_churn_event_day) {
      const std::uint64_t h = mix64(
          config_.seed ^ 0xabcdef ^ (static_cast<std::uint64_t>(id) << 20));
      const double u = static_cast<double>(h >> 11) / 9007199254740992.0;
      if (u < config_.tower_churn_event_fraction) ++epoch;
    }
    id += static_cast<CellId>(epoch) * 1000000;
  }
  return fingerprint;
}

AnnotatedTrip World::build_trip_from_legs(const std::vector<TripLeg>& legs,
                                          std::int32_t participant, Rng& rng,
                                          const EventChannel* channel) const {
  if (legs.empty()) {
    throw std::invalid_argument("build_trip_from_legs: no legs");
  }
  const EventChannel& beeps_channel = channel ? *channel : event_channel_;
  std::vector<Beep> beeps;
  TripGroundTruth header;
  header.route_id = legs.front().route->id();
  header.board_stop_index = legs.front().board;
  header.alight_stop_index = legs.back().alight;
  for (const TripLeg& leg : legs) {
    const BusRoute& route = *leg.route;
    const BusRun& run = *leg.run;
    if (leg.board < 0 || leg.alight <= leg.board ||
        leg.alight >= static_cast<int>(run.visits.size())) {
      throw std::invalid_argument("build_trip_from_legs: invalid stop indices");
    }
    header.leg_routes.push_back(route.id());
    for (int k = leg.board; k <= leg.alight; ++k) {
      const StopVisit& visit = run.visits[static_cast<std::size_t>(k)];
      if (!visit.served) continue;
      const double arc = route.stop_arc(k);
      const Point bus_pos = route.path().point_at(arc);
      for (const TapEvent& tap : visit.taps) {
        if (beeps_channel.delivered(rng)) {
          beeps.push_back(Beep{tap.time, bus_pos, visit.stop});
        }
      }
    }
    // Spurious detections while the bus is moving (sound-alike noises).
    if (!run.trajectory.empty()) {
      const int spurious = beeps_channel.spurious_count(rng);
      const SimTime t0 =
          run.visits[static_cast<std::size_t>(leg.board)].departure;
      const SimTime t1 =
          run.visits[static_cast<std::size_t>(leg.alight)].arrival;
      for (int s = 0; s < spurious && t1 > t0; ++s) {
        const SimTime t = beeps_channel.spurious_time(t0, t1, rng);
        const Point pos = route.path().point_at(run.arc_at(t));
        beeps.push_back(Beep{t, pos, kInvalidStop});
      }
    }
  }
  std::sort(beeps.begin(), beeps.end(),
            [](const Beep& a, const Beep& b) { return a.time < b.time; });
  return record_trip(beeps, header, participant, rng);
}

AnnotatedTrip World::record_trip(const std::vector<Beep>& beeps,
                                 const TripGroundTruth& header,
                                 std::int32_t participant, Rng& rng) const {
  std::size_t cursor = 0;
  std::vector<StopId> scanned_stops;  // true stop per executed scan, in order
  TripRecorder recorder(
      config_.recorder, participant,
      [&](SimTime t) {
        const Beep& beep = beeps[cursor];
        scanned_stops.push_back(beep.true_stop);
        return apply_churn(scanner_.scan_fingerprint(*radio_, beep.position,
                                                     rng, /*in_bus=*/true),
                           t);
      },
      [&](SimTime /*t*/) {
        return accel_model_.sample_variance(VehicleClass::kBus, rng);
      });

  std::vector<TripUpload> uploads;
  for (cursor = 0; cursor < beeps.size(); ++cursor) {
    if (auto done = recorder.on_beep(beeps[cursor].time)) {
      uploads.push_back(std::move(*done));
    }
  }
  if (auto done = recorder.flush()) uploads.push_back(std::move(*done));

  // Uploads consume the scan history in order, so each upload's truth is
  // the next run of scanned stops.
  std::size_t history = 0;
  AnnotatedTrip best;
  for (TripUpload& up : uploads) {
    const std::size_t first = history;
    history += up.samples.size();
    if (up.samples.size() > best.upload.samples.size()) {
      best.upload = std::move(up);
      best.truth = header;
      best.truth.sample_stops.assign(
          scanned_stops.begin() + static_cast<std::ptrdiff_t>(first),
          scanned_stops.begin() + static_cast<std::ptrdiff_t>(history));
    }
  }
  return best;
}

std::pair<int, int> World::find_transfer_stops(const BusRoute& a,
                                               const BusRoute& b) const {
  double best_dist = std::numeric_limits<double>::infinity();
  std::pair<int, int> best{-1, -1};
  // Leave at least two stops of travel on each side of the transfer.
  for (int i = 2; i + 1 < static_cast<int>(a.stop_count()); ++i) {
    const Point pa = city_->stop(a.stops()[static_cast<std::size_t>(i)].stop).position;
    for (int j = 1; j + 2 < static_cast<int>(b.stop_count()); ++j) {
      const Point pb =
          city_->stop(b.stops()[static_cast<std::size_t>(j)].stop).position;
      const double d = distance(pa, pb);
      if (d < best_dist) {
        best_dist = d;
        best = {i, j};
      }
    }
  }
  return best;
}

AnnotatedTrip World::simulate_transfer_trip(const BusRoute& first, int board_a,
                                            int alight_a, const BusRoute& second,
                                            int board_b, int alight_b,
                                            SimTime first_depart,
                                            Rng& rng) const {
  const std::map<int, int> board_map_a{{board_a, 1}};
  const std::map<int, int> alight_map_a{{alight_a, 1}};
  const BusRun run_a =
      bus_sim_->simulate_run(first, first_depart, board_map_a, alight_map_a,
                             config_.headway_s, rng, /*record_trajectory=*/true);
  const SimTime transfer_done =
      run_a.visits[static_cast<std::size_t>(alight_a)].departure;

  // Timetable the second bus so it reaches the transfer stop a few minutes
  // after the rider — comfortably inside the recorder's 10-minute timeout.
  const double eta_to_board = second.stop_arc(board_b) / kmh_to_ms(22.0);
  SimTime second_depart = transfer_done + 4.0 * kMinute - eta_to_board;
  const std::map<int, int> board_map_b{{board_b, 1}};
  const std::map<int, int> alight_map_b{{alight_b, 1}};
  BusRun run_b;
  for (int attempt = 0; attempt < 6; ++attempt) {
    run_b = bus_sim_->simulate_run(second, second_depart, board_map_b,
                                   alight_map_b, config_.headway_s, rng,
                                   /*record_trajectory=*/true);
    const SimTime pickup =
        run_b.visits[static_cast<std::size_t>(board_b)].arrival;
    if (pickup > transfer_done + 30.0 &&
        pickup < transfer_done + config_.recorder.trip_timeout_s - 60.0) {
      break;
    }
    // Too early or too late: shift the departure toward the target window.
    second_depart += (transfer_done + 4.0 * kMinute) - pickup;
  }
  return build_trip_from_legs(
      {TripLeg{&first, &run_a, board_a, alight_a},
       TripLeg{&second, &run_b, board_b, alight_b}},
      /*participant=*/0, rng);
}

std::vector<AnnotatedTrip> World::simulate_driver_day(int day, Rng& rng) const {
  std::vector<AnnotatedTrip> trips;
  for (const BusRoute& route : city_->routes()) {
    SimTime depart = at_clock(day, 0) + config_.service_start_h * kHour +
                     rng.uniform(0.0, 120.0);
    const SimTime end = at_clock(day, 0) + config_.service_end_h * kHour;
    const int last = static_cast<int>(route.stop_count()) - 1;
    while (depart < end) {
      AnnotatedTrip trip = simulate_single_trip(route, 0, last, depart, rng);
      if (!trip.upload.empty()) trips.push_back(std::move(trip));
      depart += config_.headway_s + rng.uniform(-60.0, 60.0);
    }
  }
  return trips;
}

AnnotatedTrip World::simulate_single_trip(const BusRoute& route, int board,
                                          int alight, SimTime bus_depart,
                                          Rng& rng, std::int32_t participant,
                                          const EventChannel* channel) const {
  const std::map<int, int> boarders{{board, 1}};
  const std::map<int, int> alighters{{alight, 1}};
  const BusRun run =
      bus_sim_->simulate_run(route, bus_depart, boarders, alighters,
                             config_.headway_s, rng, /*record_trajectory=*/true);
  return build_trip_from_legs({TripLeg{&route, &run, board, alight}},
                              participant, rng, channel);
}

World::DayResult World::simulate_day(int day, double intensity, Rng& rng) const {
  DayResult result;

  // Departure timetable per directed route.
  struct PlannedRun {
    RouteId route;
    SimTime depart;
    std::map<int, int> extra_boarders;
    std::map<int, int> extra_alighters;
    std::vector<std::tuple<std::int32_t, int, int>> riders;  // (pid, board, alight)
  };
  std::vector<std::vector<PlannedRun>> timetable(city_->routes().size());
  for (const BusRoute& route : city_->routes()) {
    SimTime t = at_clock(day, 0) + config_.service_start_h * kHour +
                rng.uniform(0.0, 120.0);
    const SimTime end = at_clock(day, 0) + config_.service_end_h * kHour;
    while (t < end) {
      timetable[static_cast<std::size_t>(route.id())].push_back(
          PlannedRun{route.id(), t, {}, {}, {}});
      t += config_.headway_s + rng.uniform(-60.0, 60.0);
    }
  }

  // Participant trip plans, assigned to timetabled runs.
  const double max_factor = config_.demand.peak_multiplier + 0.1;
  for (int p = 0; p < config_.participant_count; ++p) {
    const int trips =
        rng.poisson(config_.trips_per_participant_per_day * intensity);
    for (int k = 0; k < trips; ++k) {
      const auto route_idx = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<int>(city_->routes().size()) - 1));
      const BusRoute& route = city_->routes()[route_idx];
      auto& runs = timetable[route_idx];
      if (runs.empty()) continue;
      const int n_stops = static_cast<int>(route.stop_count());
      if (n_stops < 4) continue;
      const int board = rng.uniform_int(0, n_stops - 3);
      const int ride = 2 + rng.poisson(5.0);
      const int alight = std::min(board + ride, n_stops - 1);
      // Desired start hour, biased toward commute peaks by rejection.
      double h = 0.0;
      for (int tries = 0; tries < 32; ++tries) {
        h = rng.uniform(config_.service_start_h, config_.service_end_h - 0.5);
        if (rng.uniform(0.0, max_factor) <=
            demand_->time_factor(at_clock(day, 0) + h * kHour)) {
          break;
        }
      }
      const SimTime desired = at_clock(day, 0) + h * kHour;
      // Approximate bus progress at 22 km/h commercial speed to pick the run
      // whose arrival at the boarding stop is soonest after `desired`.
      const double eta_s = route.stop_arc(board) / kmh_to_ms(22.0);
      std::size_t chosen = runs.size() - 1;
      for (std::size_t r = 0; r < runs.size(); ++r) {
        if (runs[r].depart + eta_s >= desired) {
          chosen = r;
          break;
        }
      }
      PlannedRun& run = runs[chosen];
      run.extra_boarders[board] += 1;
      run.extra_alighters[alight] += 1;
      run.riders.emplace_back(p, board, alight);
    }
  }

  // Simulate every run; build trips for runs carrying participants.
  for (const BusRoute& route : city_->routes()) {
    for (PlannedRun& planned : timetable[static_cast<std::size_t>(route.id())]) {
      const bool has_riders = !planned.riders.empty();
      BusRun run = bus_sim_->simulate_run(route, planned.depart,
                                          planned.extra_boarders,
                                          planned.extra_alighters,
                                          config_.headway_s, rng, has_riders);
      for (const auto& [pid, board, alight] : planned.riders) {
        AnnotatedTrip trip = build_trip_from_legs(
            {TripLeg{&route, &run, board, alight}}, pid, rng);
        if (!trip.upload.empty()) result.trips.push_back(std::move(trip));
      }
      run.trajectory.clear();  // not needed downstream; keep memory bounded
      result.runs.push_back(std::move(run));
    }
  }
  return result;
}

std::vector<std::pair<SimTime, Point>> World::gps_trace(const BusRun& run,
                                                        double period_s,
                                                        Rng& rng) const {
  if (period_s <= 0.0) {
    throw std::invalid_argument("gps_trace: non-positive period");
  }
  const BusRoute& route = city_->route(run.route);
  const GpsModel gps;
  std::vector<std::pair<SimTime, Point>> fixes;
  for (SimTime t = run.depart_time; t <= run.end_time; t += period_s) {
    const Point true_pos = route.path().point_at(run.arc_at(t));
    fixes.emplace_back(t, gps.sample_fix(true_pos, GpsMode::kMobileOnBus, rng));
  }
  return fixes;
}

}  // namespace bussense
