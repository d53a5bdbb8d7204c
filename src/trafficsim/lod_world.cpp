#include "trafficsim/lod_world.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <map>
#include <ostream>
#include <stdexcept>

#include "obs/metrics.h"

namespace bussense {
namespace {

// Substream salts: tier assignment, per-(rider, day) trip plans and
// per-(rider, day, trip) simulation each live in their own key space so no
// tier or plan draw can perturb another rider's stream.
constexpr std::uint64_t kTierSalt = 0x7469657273616c74ULL;
constexpr std::uint64_t kPlanSalt = 0x706c616e73616c74ULL;
constexpr std::uint64_t kTripSalt = 0x7472697073616c74ULL;

/// Focus tier: a detector event within this window of a tap is that tap.
constexpr double kFocusMatchTolerance = 0.25;
/// Focus tier: rendered cabin audio around each dwell, seconds. The lead
/// gives the detector's noise baseline (0.5 s) time to settle before the
/// first tap burst.
constexpr double kFocusClipLead = 2.5;
constexpr double kFocusClipTail = 1.0;

/// Riders per parallel work unit: a 64th of the range, at most 1024, so a
/// small population still spreads over the pool. Derived from the rider
/// count only, never from the thread count, so the block decomposition is
/// identical at any pool size (and the output, sorted by a total order,
/// does not depend on it at all).
std::int64_t rider_block(std::int64_t riders) {
  return std::clamp<std::int64_t>((riders + 63) / 64, 1, 1024);
}

/// Ground truth of a one-leg ride, before its samples are known.
TripGroundTruth ride_header(const BusRoute& route, int board, int alight) {
  TripGroundTruth truth;
  truth.route_id = route.id();
  truth.board_stop_index = board;
  truth.alight_stop_index = alight;
  truth.leg_routes.push_back(route.id());
  return truth;
}

}  // namespace

const char* to_string(FidelityTier tier) {
  switch (tier) {
    case FidelityTier::kFocus:
      return "focus";
    case FidelityTier::kEvent:
      return "event";
    case FidelityTier::kOnRails:
      return "onrails";
  }
  return "unknown";
}

void LodConfig::validate() const {
  if (!(focus_fraction >= 0.0 && focus_fraction <= 1.0) ||
      !(event_fraction >= 0.0 && event_fraction <= 1.0)) {
    throw std::invalid_argument("LodConfig: tier fraction outside [0, 1]");
  }
  if (!(trips_per_rider_per_day >= 0.0)) {
    throw std::invalid_argument("LodConfig: negative trips_per_rider_per_day");
  }
  if (!(weekend_factor >= 0.0) || !(depot_pulse_boost >= 0.0) ||
      !(depot_pulse_width_min > 0.0)) {
    throw std::invalid_argument("LodConfig: bad load-curve shape");
  }
  if (!(upload_lag_s >= 0.0)) {
    throw std::invalid_argument("LodConfig: negative upload_lag_s");
  }
  event.validate();
  audio.validate();
}

LodWorld::LodWorld(const World& world, std::int64_t riders, LodConfig config)
    : world_(&world), riders_(riders), config_(std::move(config)),
      event_channel_(config_.event) {
  if (riders_ < 0) {
    throw std::invalid_argument("LodWorld: negative rider count");
  }
  config_.validate();
  assign_tiers();

  for (const BusRoute& route : world_->city().routes()) {
    route_first_site_.push_back(stop_sites_.size());
    for (int k = 0; k < static_cast<int>(route.stop_count()); ++k) {
      stop_sites_.push_back(world_->scanner().site(
          world_->radio(), route.path().point_at(route.stop_arc(k)),
          /*in_bus=*/true));
    }
  }

  // Supremum of the weekly load curve, for departure rejection sampling.
  // One-minute scan over the week; the curve is smooth at that scale.
  double max_load = 0.0;
  for (int day = 0; day < 7; ++day) {
    for (int minute = 0; minute < 24 * 60; ++minute) {
      max_load = std::max(max_load, load_factor(at_clock(day, 0) + minute * kMinute));
    }
  }
  max_load_factor_ = max_load * 1.01;
}

void LodWorld::assign_tiers() {
  tiers_.assign(static_cast<std::size_t>(riders_),
                static_cast<std::uint8_t>(FidelityTier::kOnRails));
  census_ = LodCensus{};
  census_.riders = static_cast<std::size_t>(riders_);

  // Each rider draws (u_focus, u_event) from its own tier substream — a
  // pure function of (seed, rider). Caps keep the smallest draws (ties by
  // rider id), so membership is deterministic and, crucially, the Event
  // candidate ranking never looks at Focus membership: growing or
  // shrinking the Focus cohort can only move riders into or out of Focus,
  // never reshuffle who the *other* tiers contain.
  struct Candidate {
    double u;
    std::int64_t rider;
    bool operator<(const Candidate& o) const {
      return u != o.u ? u < o.u : rider < o.rider;
    }
  };
  std::vector<Candidate> focus_cands;
  std::vector<Candidate> event_cands;
  for (std::int64_t rider = 0; rider < riders_; ++rider) {
    Rng t = Rng::stream(config_.seed ^ kTierSalt, static_cast<std::uint64_t>(rider));
    const double u_focus = t.uniform(0.0, 1.0);
    const double u_event = t.uniform(0.0, 1.0);
    if (u_focus < config_.focus_fraction) focus_cands.push_back({u_focus, rider});
    if (u_event < config_.event_fraction) event_cands.push_back({u_event, rider});
  }
  std::sort(focus_cands.begin(), focus_cands.end());
  std::sort(event_cands.begin(), event_cands.end());

  const std::size_t focus_n = std::min(focus_cands.size(), config_.focus_cap);
  census_.focus_demoted = focus_cands.size() - focus_n;
  for (std::size_t i = 0; i < focus_n; ++i) {
    tiers_[static_cast<std::size_t>(focus_cands[i].rider)] =
        static_cast<std::uint8_t>(FidelityTier::kFocus);
  }
  const std::size_t event_n = std::min(event_cands.size(), config_.event_cap);
  census_.event_demoted = event_cands.size() - event_n;
  for (std::size_t i = 0; i < event_n; ++i) {
    auto& slot = tiers_[static_cast<std::size_t>(event_cands[i].rider)];
    if (slot != static_cast<std::uint8_t>(FidelityTier::kFocus)) {
      slot = static_cast<std::uint8_t>(FidelityTier::kEvent);
    }
  }
  for (std::uint8_t t : tiers_) {
    switch (static_cast<FidelityTier>(t)) {
      case FidelityTier::kFocus: ++census_.focus; break;
      case FidelityTier::kEvent: ++census_.event; break;
      case FidelityTier::kOnRails: ++census_.on_rails; break;
    }
  }
}

double LodWorld::load_factor(SimTime t) const {
  const bool weekend = is_weekend(day_index(t));
  double f = world_->demand().time_factor(t);
  if (weekend) {
    // Flatten the commute peaks (sqrt keeps nights quiet while shaving the
    // peaks) and scale the overall volume down.
    f = config_.weekend_factor * std::sqrt(f);
  }
  // Depot pulses: buses surge out of depots at service start and stream
  // back at service end, dragging rider activity with them.
  const double h = time_of_day(t) / kHour;
  const double width_h = config_.depot_pulse_width_min / 60.0;
  const double weekend_scale = weekend ? config_.weekend_factor : 1.0;
  const auto pulse = [&](double center_h) {
    const double d = (h - center_h) / width_h;
    return config_.depot_pulse_boost * std::exp(-0.5 * d * d);
  };
  f += weekend_scale * (pulse(world_->config().service_start_h) +
                        pulse(world_->config().service_end_h));
  return f;
}

Rng LodWorld::plan_rng(std::int64_t rider, int day) const {
  return Rng::stream(mix64(config_.seed ^ kPlanSalt) ^
                         mix64(static_cast<std::uint64_t>(rider)),
                     static_cast<std::uint64_t>(day));
}

Rng LodWorld::trip_rng(std::int64_t rider, int day, int trip_index) const {
  return Rng::stream(mix64(config_.seed ^ kTripSalt) ^
                         mix64(static_cast<std::uint64_t>(rider)),
                     (static_cast<std::uint64_t>(day) << 20) |
                         static_cast<std::uint64_t>(trip_index));
}

int LodWorld::trip_count(std::int64_t rider, int day) const {
  Rng plan = plan_rng(rider, day);
  const double rate = config_.trips_per_rider_per_day *
                      (is_weekend(day) ? config_.weekend_factor : 1.0);
  return plan.poisson(rate);
}

std::vector<LodWorld::TripPlan> LodWorld::plan_day(std::int64_t rider,
                                                   int day) const {
  Rng plan = plan_rng(rider, day);
  const double rate = config_.trips_per_rider_per_day *
                      (is_weekend(day) ? config_.weekend_factor : 1.0);
  const int trips = plan.poisson(rate);  // same first draw as trip_count()
  std::vector<TripPlan> plans;
  plans.reserve(static_cast<std::size_t>(trips));
  const auto& routes = world_->city().routes();
  const WorldConfig& wc = world_->config();
  const SimTime day0 = at_clock(day, 0);
  for (int k = 0; k < trips; ++k) {
    TripPlan p;
    if (!routes.empty()) {
      for (int tries = 0; tries < 32; ++tries) {
        const auto idx = static_cast<std::size_t>(
            plan.uniform_int(0, static_cast<int>(routes.size()) - 1));
        const BusRoute& route = routes[idx];
        const int n_stops = static_cast<int>(route.stop_count());
        if (n_stops < 4) continue;
        p.route = route.id();
        p.board = plan.uniform_int(0, n_stops - 3);
        const int ride = 2 + plan.poisson(5.0);
        p.alight = std::min(p.board + ride, n_stops - 1);
        break;
      }
    }
    if (p.route != kInvalidRoute) {
      // Departure hour shaped by the weekly load curve via rejection.
      double h = 0.5 * (wc.service_start_h + wc.service_end_h);
      for (int tries = 0; tries < 32; ++tries) {
        h = plan.uniform(wc.service_start_h, wc.service_end_h - 0.5);
        if (plan.uniform(0.0, max_load_factor_) <=
            load_factor(day0 + h * kHour)) {
          break;
        }
      }
      p.depart = day0 + h * kHour;
    }
    plans.push_back(p);
  }
  return plans;
}

std::vector<World::Beep> LodWorld::detected_beeps(const BusRoute& route,
                                                  const BusRun& run, int board,
                                                  int alight, Rng& rng) const {
  // The full waveform path: render cabin audio around every served dwell
  // and run the streaming detector over it — exactly the testbed pipeline,
  // windowed to the dwells so a week of Focus riders stays affordable.
  std::vector<World::Beep> beeps;
  for (int k = board; k <= alight; ++k) {
    const StopVisit& visit = run.visits[static_cast<std::size_t>(k)];
    if (!visit.served) continue;
    const SimTime clip_start = visit.arrival - kFocusClipLead;
    const double clip_s = (visit.departure + kFocusClipTail) - clip_start;
    std::vector<SimTime> tap_offsets;
    tap_offsets.reserve(visit.taps.size());
    for (const TapEvent& tap : visit.taps) {
      tap_offsets.push_back(tap.time - clip_start);
    }
    BusAudioSynth synth(config_.audio, clip_s, tap_offsets, rng);
    BeepDetector detector(config_.detector);
    detector.set_origin(clip_start);
    for (const BeepEvent& event : synth.render_into(detector)) {
      bool matched = false;
      for (const TapEvent& tap : visit.taps) {
        if (std::abs(event.time - tap.time) <= kFocusMatchTolerance) {
          matched = true;
          break;
        }
      }
      const SimTime t =
          std::clamp(event.time, run.depart_time, run.end_time);
      beeps.push_back(World::Beep{event.time,
                                  route.path().point_at(run.arc_at(t)),
                                  matched ? visit.stop : kInvalidStop});
    }
  }
  std::sort(beeps.begin(), beeps.end(),
            [](const World::Beep& a, const World::Beep& b) {
              return a.time < b.time;
            });
  return beeps;
}

AnnotatedTrip LodWorld::onrails_trip(const BusRoute& route, int board,
                                     int alight, SimTime depart,
                                     std::int32_t participant,
                                     Rng& rng) const {
  // Closed-form trip: per-link speeds straight from the traffic field with
  // the bus congestion penalty, demand-driven dwells, one sample per
  // served stop the rider is aboard for (subject to the calibrated
  // delivery probability). No waveform, no recorder, no spurious beeps —
  // the long-tail approximation DESIGN.md §15 documents.
  const BusSimConfig& bus = world_->buses().config();
  const TrafficField& traffic = world_->traffic();
  const DemandModel& demand = world_->demand();
  const double headway = world_->config().headway_s;

  AnnotatedTrip trip;
  trip.upload.participant_id = participant;
  trip.truth = ride_header(route, board, alight);

  SimTime t = depart;
  double prev_arc = 0.0;
  for (int k = 0; k <= alight; ++k) {
    const double arc = route.stop_arc(k);
    for (const auto& [link, metres] : route.link_lengths_between(prev_arc, arc)) {
      const double congestion = traffic.congestion(link, t);
      const double factor =
          std::max(bus.min_speed_factor,
                   bus.base_speed_factor - bus.congestion_sensitivity * congestion);
      const double v_kmh =
          std::clamp(traffic.car_speed_kmh(link, t) * factor, bus.min_speed_kmh,
                     bus.max_speed_kmh);
      t += metres / kmh_to_ms(v_kmh);
    }
    prev_arc = arc;

    const StopId stop = route.stops()[static_cast<std::size_t>(k)].stop;
    int boarders = demand.draw_boarders(stop, t, headway, rng);
    int alighters = 0;
    if (k == board) boarders += 1;
    if (k == alight) alighters += 1;
    if (boarders == 0 && alighters == 0) continue;  // skipped stop

    if (k >= board && k <= alight && event_channel_.delivered(rng)) {
      const SimTime sample_t = t + bus.tap_start_offset_s;
      const ScanSite& site =
          stop_sites_[route_first_site_[static_cast<std::size_t>(route.id())] +
                      static_cast<std::size_t>(k)];
      Fingerprint fp = world_->apply_churn(
          world_->scanner().scan_fingerprint(world_->radio(), site, rng),
          sample_t);
      trip.upload.samples.push_back(CellularSample{sample_t, std::move(fp)});
      trip.truth.sample_stops.push_back(stop);
    }
    t += std::max(bus.base_dwell_s,
                  bus.tap_start_offset_s + bus.per_boarder_s * boarders +
                      bus.per_alighter_s * alighters);
  }
  return trip;
}

std::vector<LodTrip> LodWorld::simulate_rider_day(
    std::int64_t rider, int day, std::optional<FidelityTier> tier) const {
  const FidelityTier effective = tier.value_or(tier_of(rider));
  const auto participant = static_cast<std::int32_t>(rider);
  const std::size_t min_samples = world_->config().recorder.min_samples;

  std::vector<LodTrip> out;
  const std::vector<TripPlan> plans = plan_day(rider, day);
  std::uint64_t planned = plans.size(), dropped = 0, thin = 0;
  for (std::size_t k = 0; k < plans.size(); ++k) {
    const TripPlan& plan = plans[k];
    if (plan.route == kInvalidRoute) {
      ++dropped;
      continue;
    }
    const BusRoute& route = world_->city().route(plan.route);
    Rng rng = trip_rng(rider, day, static_cast<int>(k));
    AnnotatedTrip trip;
    switch (effective) {
      case FidelityTier::kFocus: {
        // Same simulate_run draw prefix as the Event tier, so the same
        // rider re-simulated across tiers rides the identical bus.
        const std::map<int, int> boarders{{plan.board, 1}};
        const std::map<int, int> alighters{{plan.alight, 1}};
        const BusRun run = world_->buses().simulate_run(
            route, plan.depart, boarders, alighters, world_->config().headway_s,
            rng, /*record_trajectory=*/true);
        trip = world_->record_trip(
            detected_beeps(route, run, plan.board, plan.alight, rng),
            ride_header(route, plan.board, plan.alight), participant, rng);
        break;
      }
      case FidelityTier::kEvent:
        trip = world_->simulate_single_trip(route, plan.board, plan.alight,
                                            plan.depart, rng, participant,
                                            &event_channel_);
        break;
      case FidelityTier::kOnRails:
        trip = onrails_trip(route, plan.board, plan.alight, plan.depart,
                            participant, rng);
        break;
    }
    // An empty trip is thin even when min_samples is 0: it has no last
    // sample to time its upload by.
    if (trip.upload.empty() || trip.upload.samples.size() < min_samples) {
      ++thin;
      continue;
    }
    LodTrip lod;
    lod.rider = rider;
    lod.day = day;
    lod.trip_index = static_cast<int>(k);
    lod.tier = effective;
    lod.arrival = trip.upload.samples.back().time + config_.upload_lag_s;
    lod.trip = std::move(trip);
    out.push_back(std::move(lod));
  }
  planned_.fetch_add(planned, std::memory_order_relaxed);
  dropped_no_route_.fetch_add(dropped, std::memory_order_relaxed);
  thin_.fetch_add(thin, std::memory_order_relaxed);
  emitted_.fetch_add(out.size(), std::memory_order_relaxed);
  return out;
}

std::vector<LodTrip> LodWorld::simulate_day_range(int day,
                                                  std::int64_t rider_begin,
                                                  std::int64_t rider_end,
                                                  ThreadPool* pool) const {
  if (rider_begin < 0 || rider_end > riders_ || rider_begin > rider_end) {
    throw std::invalid_argument("simulate_day_range: bad rider range");
  }
  const std::int64_t total = rider_end - rider_begin;
  const std::int64_t block_riders = rider_block(total);
  const std::size_t blocks =
      static_cast<std::size_t>((total + block_riders - 1) / block_riders);
  std::vector<std::vector<LodTrip>> per_block(blocks);
  const auto body = [&](std::size_t b) {
    const std::int64_t lo =
        rider_begin + static_cast<std::int64_t>(b) * block_riders;
    const std::int64_t hi = std::min(lo + block_riders, rider_end);
    std::vector<LodTrip>& block = per_block[b];
    for (std::int64_t rider = lo; rider < hi; ++rider) {
      std::vector<LodTrip> trips = simulate_rider_day(rider, day);
      block.insert(block.end(), std::make_move_iterator(trips.begin()),
                   std::make_move_iterator(trips.end()));
    }
  };
  if (pool) {
    pool->parallel_for(blocks, body);
  } else {
    for (std::size_t b = 0; b < blocks; ++b) body(b);
  }
  std::size_t count = 0;
  for (const auto& block : per_block) count += block.size();
  std::vector<LodTrip> out;
  out.reserve(count);
  for (auto& block : per_block) {
    out.insert(out.end(), std::make_move_iterator(block.begin()),
               std::make_move_iterator(block.end()));
  }
  // Ingest replay order. (arrival, rider, trip_index) is a total order —
  // (rider, trip_index) is unique — so the sort result is schedule-free.
  std::sort(out.begin(), out.end(), [](const LodTrip& a, const LodTrip& b) {
    if (a.arrival != b.arrival) return a.arrival < b.arrival;
    if (a.rider != b.rider) return a.rider < b.rider;
    return a.trip_index < b.trip_index;
  });
  return out;
}

LodLoss LodWorld::loss() const {
  LodLoss loss;
  loss.planned = planned_.load(std::memory_order_relaxed);
  loss.dropped_no_route = dropped_no_route_.load(std::memory_order_relaxed);
  loss.thin = thin_.load(std::memory_order_relaxed);
  loss.emitted = emitted_.load(std::memory_order_relaxed);
  return loss;
}

void LodWorld::export_loss(MetricsRegistry& registry) const {
  const LodLoss l = loss();
  registry.counter("trafficsim.lod.planned").add(l.planned);
  registry.counter("trafficsim.lod.dropped_no_route").add(l.dropped_no_route);
  registry.counter("trafficsim.lod.thin").add(l.thin);
  registry.counter("trafficsim.lod.emitted").add(l.emitted);
}

namespace {

void put_double(std::ostream& out, double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  out << buf;
}

struct Fnv1a {
  std::uint64_t h;
  explicit Fnv1a(std::uint64_t seed) : h(seed) {}
  void byte(std::uint8_t b) {
    h ^= b;
    h *= 0x100000001b3ULL;
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) byte(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
};

}  // namespace

void LodWorld::write_stream(std::ostream& out,
                            const std::vector<LodTrip>& trips) {
  out << "bussense-lod-trips v1\n";
  for (const LodTrip& t : trips) {
    out << "trip " << t.rider << ' ' << t.day << ' ' << t.trip_index << ' '
        << to_string(t.tier) << ' ' << t.trip.upload.participant_id << ' '
        << t.trip.truth.route_id << ' ' << t.trip.truth.board_stop_index << ' '
        << t.trip.truth.alight_stop_index << ' ';
    put_double(out, t.arrival);
    out << ' ' << t.trip.upload.samples.size() << '\n';
    for (std::size_t i = 0; i < t.trip.upload.samples.size(); ++i) {
      const CellularSample& s = t.trip.upload.samples[i];
      out << "s ";
      put_double(out, s.time);
      out << ' ' << t.trip.truth.sample_stops[i] << ' '
          << s.fingerprint.cells.size();
      for (CellId id : s.fingerprint.cells) out << ' ' << id;
      out << '\n';
    }
  }
  out << "end " << trips.size() << '\n';
}

std::uint64_t LodWorld::stream_digest(const std::vector<LodTrip>& trips,
                                      std::uint64_t seed) {
  Fnv1a hash(seed);
  for (const LodTrip& t : trips) {
    hash.u64(static_cast<std::uint64_t>(t.rider));
    hash.u64(static_cast<std::uint64_t>(t.day));
    hash.u64(static_cast<std::uint64_t>(t.trip_index));
    hash.byte(static_cast<std::uint8_t>(t.tier));
    hash.u64(static_cast<std::uint64_t>(t.trip.upload.participant_id));
    hash.u64(static_cast<std::uint64_t>(t.trip.truth.route_id));
    hash.u64(static_cast<std::uint64_t>(t.trip.truth.board_stop_index));
    hash.u64(static_cast<std::uint64_t>(t.trip.truth.alight_stop_index));
    hash.f64(t.arrival);
    hash.u64(t.trip.upload.samples.size());
    for (std::size_t i = 0; i < t.trip.upload.samples.size(); ++i) {
      const CellularSample& s = t.trip.upload.samples[i];
      hash.f64(s.time);
      hash.u64(static_cast<std::uint64_t>(t.trip.truth.sample_stops[i]));
      hash.u64(s.fingerprint.cells.size());
      for (CellId id : s.fingerprint.cells) {
        hash.u64(static_cast<std::uint64_t>(id));
      }
    }
  }
  hash.u64(trips.size());
  return hash.h;
}

}  // namespace bussense
