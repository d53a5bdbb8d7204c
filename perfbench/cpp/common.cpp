#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <sstream>
#include <tuple>

#include "bench.h"
#include "common/rng.h"

namespace perfbench {

using namespace bussense;

namespace {

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

std::string key_text(const SegmentKey& key) {
  return std::to_string(key.from) + "->" + std::to_string(key.to);
}

std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  std::ostringstream os;
  os.precision(17);
  os << v;
  return os.str();
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += (static_cast<unsigned char>(c) < 0x20) ? ' ' : c;
  }
  return out + "\"";
}

}  // namespace

// ------------------------------------------------------------------ timing

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (rank - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) / static_cast<double>(values.size());
}

void LatencyHistogram::record(std::int64_t ns) {
  const std::uint64_t v = ns < 0 ? 0 : static_cast<std::uint64_t>(ns);
  std::size_t bucket = counts_.size() - 1;
  if (v < kLinear) {
    bucket = static_cast<std::size_t>(v);
  } else {
    const int msb = 63 - __builtin_clzll(v);  // >= 10
    const auto octave = static_cast<std::size_t>(msb - 10);
    if (octave < kOctaves) {
      const std::size_t sub = (v >> (msb - 6)) & (kPerOctave - 1);
      bucket = kLinear + octave * kPerOctave + sub;
    }
  }
  ++counts_[bucket];
  ++total_;
}

void LatencyHistogram::merge(const LatencyHistogram& other) {
  for (std::size_t i = 0; i < counts_.size(); ++i) counts_[i] += other.counts_[i];
  total_ += other.total_;
}

double LatencyHistogram::quantile_ns(double q) const {
  if (total_ == 0) return 0.0;
  const double rank = q * static_cast<double>(total_ - 1);
  std::uint64_t below = 0;
  for (std::size_t b = 0; b < counts_.size(); ++b) {
    if (counts_[b] == 0 || static_cast<double>(below + counts_[b]) <= rank) {
      below += counts_[b];
      continue;
    }
    double low = static_cast<double>(b);
    double width = 1.0;
    if (b >= kLinear) {
      const std::size_t octave = (b - kLinear) / kPerOctave;
      const std::size_t sub = (b - kLinear) % kPerOctave;
      low = std::ldexp(static_cast<double>(kPerOctave + sub), static_cast<int>(octave) + 4);
      width = std::ldexp(1.0, static_cast<int>(octave) + 4);
    }
    const double frac = (rank - static_cast<double>(below) + 0.5) /
                        static_cast<double>(counts_[b]);
    return low + frac * width;
  }
  return 0.0;
}

double peak_rss_mb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void release_free_memory() { (void)malloc_trim(0); }

// ------------------------------------------------------------------ report

void Report::metric(const std::string& name, double value,
                    const std::string& unit, std::uint64_t samples, bool json) {
  metrics_.push_back(Metric{name, value, unit, samples, json});
}

void Report::stamp(const std::string& key, const std::string& value) {
  stamp_.emplace_back(key, quoted(value));
}

void Report::stamp(const std::string& key, double value) {
  stamp_.emplace_back(key, number(value));
}

bool Report::check(bool ok, const std::string& what) {
  ++checks_;
  if (!ok) {
    ++checks_failed_;
    if (failures_.size() < 20) failures_.push_back(what);
  }
  return ok;
}

void Report::attempt(std::uint64_t ops, std::uint64_t failed) {
  attempted_ += ops;
  failed_ops_ += failed;
}

int Report::finish(std::ostream& out) const {
  out << "stamp {";
  for (std::size_t i = 0; i < stamp_.size(); ++i) {
    out << (i ? ", " : "") << quoted(stamp_[i].first) << ": " << stamp_[i].second;
  }
  out << "}\n";
  for (const Metric& m : metrics_) {
    out << "metric " << m.name << " = " << number(m.value) << " " << m.unit
        << " (n=" << m.samples << ")" << (m.json ? "" : " [detail]") << "\n";
  }
  out << "checks: " << checks_ - checks_failed_ << " passed, " << checks_failed_
      << " failed\n";
  for (const std::string& f : failures_) out << "FAILED: " << f << "\n";
  const bool correct = checks_failed_ == 0 && failed_ops_ == 0;
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << std::max<std::uint64_t>(attempted_, 1)
      << ", \"failed\": " << failed_ops_ + checks_failed_ << ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : metrics_) {
    if (!m.json) continue;
    out << (first ? "" : ", ") << quoted(m.name) << ": {\"value\": "
        << number(m.value) << ", \"unit\": " << quoted(m.unit) << "}";
    first = false;
  }
  out << "}}\n";
  out.flush();
  return correct ? 0 : 1;
}

// ----------------------------------------------------------------- tracing

void aggregate_spans(const std::vector<Span>& spans,
                     std::map<std::string, SpanStats>& into) {
  std::vector<std::int64_t> covered(spans.size(), 0);
  for (const Span& s : spans) {
    if (s.parent < 0) continue;
    const Span& p = spans[static_cast<std::size_t>(s.parent)];
    covered[static_cast<std::size_t>(s.parent)] += std::max<std::int64_t>(
        0, std::min(s.end_ns, p.end_ns) - std::max(s.start_ns, p.start_ns));
  }
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const std::int64_t duration = s.end_ns - s.start_ns;
    SpanStats& st = into[s.name];
    ++st.count;
    st.total_s += static_cast<double>(duration) * 1e-9;
    st.self_s += static_cast<double>(duration - covered[i]) * 1e-9;
    st.durations_ns.push_back(static_cast<double>(duration));
  }
}

void write_spans(const std::string& path,
                 const std::vector<const SpanRecorder*>& recorders) {
  std::int64_t origin = INT64_MAX;
  for (const SpanRecorder* rec : recorders) {
    for (const Span& s : rec->spans()) origin = std::min(origin, s.start_ns);
  }
  std::ofstream out(path);
  out << "id,name,parent,request,start_ns,end_ns\n";
  std::int64_t offset = 0;
  for (const SpanRecorder* rec : recorders) {
    const auto& spans = rec->spans();
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      out << offset + static_cast<std::int64_t>(i) << ',' << s.name << ','
          << (s.parent < 0 ? -1 : offset + s.parent) << ',' << s.request << ','
          << s.start_ns - origin << ',' << s.end_ns - origin << '\n';
    }
    offset += static_cast<std::int64_t>(spans.size());
  }
}

// ----------------------------------------------------------------- fixture

std::unique_ptr<Testbed> build_testbed() {
  auto bed = std::make_unique<Testbed>();
  Rng survey_rng(2024);
  bed->database = build_stop_database(
      bed->world.city(),
      [&](StopId stop, int run) {
        return bed->world.scan_stop(stop, survey_rng, run % 2 == 1);
      },
      5);
  return bed;
}

std::vector<Window> plan_windows(const std::vector<TimedUpload>& uploads) {
  constexpr double kPeriodS = 300.0;
  constexpr double kFinalLagS = 30.0;
  std::vector<Window> windows;
  if (uploads.empty()) return windows;
  double boundary =
      (std::floor(uploads.front().arrival / kPeriodS) + 1.0) * kPeriodS;
  std::size_t begin = 0;
  for (std::size_t i = 0; i < uploads.size(); ++i) {
    while (uploads[i].arrival >= boundary) {
      windows.push_back(Window{begin, i, boundary});
      begin = i;
      boundary += kPeriodS;
    }
  }
  windows.push_back(Window{begin, uploads.size(), uploads.back().arrival + kFinalLagS});
  return windows;
}

std::uint64_t digest(const std::vector<TimedUpload>& uploads) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) h = (h ^ p[i]) * 0x100000001b3ULL;
  };
  for (const TimedUpload& u : uploads) {
    mix(&u.arrival, sizeof u.arrival);
    mix(&u.upload.participant_id, sizeof u.upload.participant_id);
    for (const CellularSample& s : u.upload.samples) {
      mix(&s.time, sizeof s.time);
      mix(s.fingerprint.cells.data(), s.fingerprint.cells.size() * sizeof(CellId));
    }
  }
  return h;
}

// -------------------------------------------------------- correctness gate

Reference serial_reference(const Testbed& bed, ServerConfig config,
                           const std::vector<TimedUpload>& uploads,
                           const std::vector<Window>& windows,
                           std::uint64_t seed) {
  config.durability = DurabilityConfig{};
  TrafficServer server(bed.world.city(), bed.database, config);
  Rng rng(mix64(seed ^ 0x5eedULL));
  Reference ref;
  std::vector<std::size_t> order;
  for (const Window& w : windows) {
    order.resize(w.end - w.begin);
    std::iota(order.begin(), order.end(), w.begin);
    std::shuffle(order.begin(), order.end(), rng.engine());
    for (const std::size_t i : order) {
      if (server.process_trip(uploads[i].upload).accepted()) ++ref.accepted;
    }
    server.advance_time(w.close);
  }
  ref.fusion = server.fusion().export_state();
  ref.map = canonical(server.snapshot(windows.back().close));
  return ref;
}

std::vector<MapSegment> canonical(const TrafficMap& map) {
  std::vector<MapSegment> out = map.segments();
  std::sort(out.begin(), out.end(), [](const MapSegment& a, const MapSegment& b) {
    return std::tie(a.key.from, a.key.to) < std::tie(b.key.from, b.key.to);
  });
  return out;
}

std::string diff_fusion(const std::vector<FusionExportEntry>& got,
                        const std::vector<FusionExportEntry>& want) {
  if (got.size() != want.size()) {
    return "fused segments " + std::to_string(got.size()) + " vs " +
           std::to_string(want.size());
  }
  for (std::size_t i = 0; i < got.size(); ++i) {
    const FusionExportEntry& g = got[i];
    const FusionExportEntry& w = want[i];
    if (!(g.key == w.key)) return "fused segment order differs at " + std::to_string(i);
    const std::string where = " on segment " + key_text(g.key);
    if (g.fused.has_value() != w.fused.has_value()) return "fused presence" + where;
    if (g.fused && (!same_bits(g.fused->mean_kmh, w.fused->mean_kmh) ||
                    !same_bits(g.fused->variance, w.fused->variance) ||
                    !same_bits(g.fused->updated_at, w.fused->updated_at) ||
                    g.fused->observation_count != w.fused->observation_count)) {
      return "fused estimate" + where;
    }
    if (g.pending.size() != w.pending.size()) return "open periods" + where;
    for (std::size_t j = 0; j < g.pending.size(); ++j) {
      const auto& [gp, gv] = g.pending[j];
      const auto& [wp, wv] = w.pending[j];
      if (gp != wp || gv.size() != wv.size()) return "open period" + where;
      for (std::size_t k = 0; k < gv.size(); ++k) {
        if (!same_bits(gv[k], wv[k])) return "open period value" + where;
      }
    }
  }
  return {};
}

std::string diff_map(const std::vector<MapSegment>& got,
                     const std::vector<MapSegment>& want) {
  if (got.size() != want.size()) {
    return "map segments " + std::to_string(got.size()) + " vs " +
           std::to_string(want.size());
  }
  for (std::size_t i = 0; i < got.size(); ++i) {
    const MapSegment& g = got[i];
    const MapSegment& w = want[i];
    if (!(g.key == w.key) || !same_bits(g.speed_kmh, w.speed_kmh) ||
        g.level != w.level || !same_bits(g.updated_at, w.updated_at) ||
        g.observation_count != w.observation_count) {
      return "map segment " + key_text(w.key);
    }
  }
  return {};
}

// ----------------------------------------------------------------- queries

const char* family_name(Family family) {
  switch (family) {
    case Family::kSegment: return "segment";
    case Family::kKNearest: return "knearest";
    case Family::kRegion: return "region";
    case Family::kEta: return "eta";
  }
  return "?";
}

const char* query_span(Family family) {
  switch (family) {
    case Family::kSegment: return "query.segment";
    case Family::kKNearest: return "query.knearest";
    case Family::kRegion: return "query.region";
    case Family::kEta: return "query.eta";
  }
  return "query";
}

QueryPools make_query_pools(const EpochPublisher& publisher, const City& city,
                            std::uint64_t seed) {
  QueryPools pools;
  Rng rng(mix64(seed ^ 0x9e3779b97f4a7c15ULL));
  const SegmentGeometry& geo = publisher.geometry();
  const BoundingBox& region = geo.region();
  for (int i = 0; i < 4096; ++i) {
    pools.keys.push_back(
        geo.entry(static_cast<std::uint32_t>(
                      rng.uniform_int(0, static_cast<int>(geo.size()) - 1)))
            .key);
  }
  const double w = region.width() / 4.0;
  const double h = region.height() / 4.0;
  std::vector<const BusRoute*> routes;
  for (const BusRoute& r : city.routes()) {
    if (r.stop_count() >= 2) routes.push_back(&r);
  }
  for (int i = 0; i < 257; ++i) {
    pools.points.push_back(Point{rng.uniform(region.min.x, region.max.x),
                                 rng.uniform(region.min.y, region.max.y)});
    BoundingBox box;
    box.min = Point{rng.uniform(region.min.x, region.max.x - w),
                    rng.uniform(region.min.y, region.max.y - h)};
    box.max = Point{box.min.x + w, box.min.y + h};
    pools.boxes.push_back(box);
    const BusRoute* route =
        routes[static_cast<std::size_t>(rng.uniform_int(0, static_cast<int>(routes.size()) - 1))];
    pools.etas.emplace_back(
        route, rng.uniform_int(0, static_cast<int>(route->stop_count()) - 2));
  }
  return pools;
}

// Offsets within a mix period: k-nearest at 0, ETA at 56, region every
// 11th position from 6 (6, 17, ..., 105), segment everywhere else.
Family family_at(std::uint64_t p) {
  const std::uint64_t offset = p % kMixPeriod;
  if (offset == 0) return Family::kKNearest;
  if (offset == 56) return Family::kEta;
  if (offset >= 6 && offset <= 105 && (offset - 6) % 11 == 0) return Family::kRegion;
  return Family::kSegment;
}

std::uint64_t mix_position(Family family, std::uint64_t period) {
  constexpr std::uint64_t kOffset[] = {1, 0, 6, 56};  // segment, knearest, region, eta
  return period * kMixPeriod + kOffset[static_cast<std::size_t>(family)];
}

// Argument pools other than the keys have a prime size, so every family's
// positions cycle through all of their entries.
std::uint64_t run_query(const QueryService& queries, const QueryPools& pools,
                        std::uint64_t p, SimTime now) {
  switch (family_at(p)) {
    case Family::kSegment:
      return queries.segment_speed(pools.keys[p % pools.keys.size()]).epoch_id;
    case Family::kKNearest:
      return queries.k_nearest_live_segments(pools.points[p % pools.points.size()], 8)
          .epoch_id;
    case Family::kRegion:
      return queries.region_aggregate(pools.boxes[p % pools.boxes.size()]).epoch_id;
    case Family::kEta: {
      const auto& [route, from] = pools.etas[p % pools.etas.size()];
      return queries.route_eta(*route, from, now).epoch_id;
    }
  }
  return 0;
}

std::string spot_check(const QueryService& queries, const QueryPools& pools,
                       std::uint64_t p, SimTime now) {
  // Pins are re-entrant per thread: the query below answers from this epoch.
  const EpochPublisher::Pin pin = queries.pin();
  if (!pin) return "no epoch published";
  const EpochSnapshot& epoch = *pin;
  const SegmentGeometry& geo = queries.publisher().geometry();
  const std::vector<MapSegment>& live = epoch.map().segments();
  const auto wrong_epoch = [&](std::uint64_t id) {
    return id != epoch.id() ? std::string(family_name(family_at(p))) +
                                  ": answered from another epoch than the pinned one"
                            : std::string();
  };
  switch (family_at(p)) {
    case Family::kSegment: {
      const SegmentKey& key = pools.keys[p % pools.keys.size()];
      const SegmentSpeedResult r = queries.segment_speed(key);
      if (auto e = wrong_epoch(r.epoch_id); !e.empty()) return e;
      const auto it = std::find_if(live.begin(), live.end(),
                                   [&](const MapSegment& s) { return s.key == key; });
      if (it == live.end()) return r.live ? "segment: live answer for a stale segment" : "";
      if (!r.live || !same_bits(r.speed_kmh, it->speed_kmh) || r.level != it->level ||
          !same_bits(r.updated_at, it->updated_at) ||
          r.observation_count != it->observation_count) {
        return "segment: answer differs from the epoch on " + key_text(key);
      }
      return {};
    }
    case Family::kKNearest: {
      const Point at = pools.points[p % pools.points.size()];
      const KNearestResult r = queries.k_nearest_live_segments(at, 8);
      if (auto e = wrong_epoch(r.epoch_id); !e.empty()) return e;
      std::vector<std::tuple<double, StopId, StopId>> all;
      for (const MapSegment& s : live) {
        if (const auto ordinal = geo.ordinal(s.key)) {
          all.emplace_back(distance(at, geo.entry(*ordinal).midpoint), s.key.from, s.key.to);
        }
      }
      std::sort(all.begin(), all.end());
      if (all.size() > 8) all.resize(8);
      if (r.nearest.size() != all.size()) return "knearest: row count differs";
      for (std::size_t i = 0; i < all.size(); ++i) {
        const NearestSegment& n = r.nearest[i];
        if (!same_bits(n.distance_m, std::get<0>(all[i])) ||
            n.segment.key.from != std::get<1>(all[i]) ||
            n.segment.key.to != std::get<2>(all[i])) {
          return "knearest: row " + std::to_string(i) + " differs from a full scan";
        }
      }
      return {};
    }
    case Family::kRegion: {
      const BoundingBox& box = pools.boxes[p % pools.boxes.size()];
      const RegionAggregate r = queries.region_aggregate(box);
      if (auto e = wrong_epoch(r.epoch_id); !e.empty()) return e;
      int total = 0, live_count = 0;
      std::array<int, 5> levels{};
      for (std::uint32_t o = 0; o < geo.size(); ++o) {
        const SegmentGeometry::Entry& e = geo.entry(o);
        if (!box.contains(e.midpoint)) continue;
        ++total;
        if (const MapSegment* s = epoch.segment(e.key)) {
          ++live_count;
          ++levels[static_cast<std::size_t>(s->level)];
        }
      }
      if (r.segments_total != total || r.segments_live != live_count ||
          r.level_histogram != levels) {
        return "region: counts differ from a full scan";
      }
      return {};
    }
    case Family::kEta: {
      const auto& [route, from] = pools.etas[p % pools.etas.size()];
      const RouteEtaResult r = queries.route_eta(*route, from, now);
      if (auto e = wrong_epoch(r.epoch_id); !e.empty()) return e;
      const EpochSnapshot* snap = &epoch;
      const std::vector<ArrivalPrediction> want = queries.predictor().predict(
          *route, from, now,
          [snap](const SegmentKey& key) { return snap->fused(key); }, snap->time());
      if (r.arrivals.size() != want.size()) return "eta: stop count differs";
      for (std::size_t i = 0; i < want.size(); ++i) {
        const ArrivalPrediction& a = r.arrivals[i];
        const ArrivalPrediction& b = want[i];
        if (a.stop_index != b.stop_index || a.stop != b.stop ||
            !same_bits(a.eta, b.eta) || !same_bits(a.travel_s, b.travel_s) ||
            a.from_live_traffic != b.from_live_traffic) {
          return "eta: prediction differs from the pinned epoch's speeds";
        }
      }
      return {};
    }
  }
  return "unknown query family";
}

// ----------------------------------------------------- end-to-end metrics

void Intervals::add(double rate, std::vector<double> latency_ns, std::vector<double> lag_ns) {
  rates.push_back(rate);
  ops += latency_ns.size();
  p50_ns.push_back(quantile(latency_ns, 0.5));
  p90_ns.push_back(quantile(latency_ns, 0.9));
  p99_ns.push_back(quantile(std::move(latency_ns), 0.99));
  lags += lag_ns.size();
  lag_p50_ns.push_back(quantile(lag_ns, 0.5));
  lag_p90_ns.push_back(quantile(std::move(lag_ns), 0.9));
}

void report_end_to_end(Report& report, const std::vector<double>& setup_s,
                       const Intervals& intervals) {
  const auto n = static_cast<std::uint64_t>(intervals.rates.size());
  report.metric("setup_s", quantile(setup_s, 0.5), "s", setup_s.size(), true);
  report.metric("ops_per_s", quantile(intervals.rates, 0.5), "1/s", n, true);
  report.metric("op_latency_p50_us", mean(intervals.p50_ns) / 1e3, "us", intervals.ops, true);
  report.metric("op_latency_p90_us", quantile(intervals.p90_ns, 0.5) / 1e3, "us", intervals.ops, true);
  report.metric("op_latency_p99_us", quantile(intervals.p99_ns, 0.5) / 1e3, "us", intervals.ops, false);
  report.metric("epoch_lag_p50_ms", mean(intervals.lag_p50_ns) / 1e6, "ms", intervals.lags, true);
  report.metric("epoch_lag_p90_ms", quantile(intervals.lag_p90_ns, 0.5) / 1e6, "ms", intervals.lags, true);
  report.metric("peak_rss_mb", peak_rss_mb(), "MB", 1, true);
}

// ------------------------------------------------------- per-layer metrics

void report_serving_layers(Report& report, const ServingSamples& s) {
  const auto n = static_cast<std::uint64_t>(s.publish_ns.size());
  report.metric("epoch_publisher.publish_p50_us", quantile(s.publish_ns, 0.5) / 1e3, "us", n, true);
  report.metric("epoch_publisher.publish_p99_us", quantile(s.publish_ns, 0.99) / 1e3, "us", n, true);
  report.metric("epoch_publisher.publishes", static_cast<double>(n), "count", n, true);
  report.metric("epoch_publisher.pin_ns", quantile(s.pin_ns, 0.5), "ns", s.pin_ns.size(), true);
  report.metric("epoch_publisher.epochs_live_max", static_cast<double>(s.epochs_live_max),
                "count", n, true);
  for (const Family f : {Family::kSegment, Family::kKNearest, Family::kRegion, Family::kEta}) {
    const auto it = s.query_ns.find(f);
    const std::vector<double> none;
    const std::vector<double>& d = it == s.query_ns.end() ? none : it->second;
    const std::string base = std::string("query.") + family_name(f);
    if (f == Family::kSegment) {
      report.metric(base + "_p50_ns", quantile(d, 0.5), "ns", d.size(), true);
    } else {
      report.metric(base + "_p50_us", quantile(d, 0.5) / 1e3, "us", d.size(), true);
    }
    const auto c = s.query_count.find(f);
    const double count = c == s.query_count.end() ? 0.0 : static_cast<double>(c->second);
    report.metric(base + "_count", count, "count", 1, true);
  }
}

void report_front_end_layers(Report& report, const FrontEndSamples& s) {
  const auto ne = static_cast<std::uint64_t>(s.enqueue_ns.size());
  const auto nd = static_cast<std::uint64_t>(s.drain_ns.size());
  report.metric("ingest.enqueue_p50_us", quantile(s.enqueue_ns, 0.5) / 1e3, "us", ne, true);
  report.metric("ingest.enqueue_p99_us", quantile(s.enqueue_ns, 0.99) / 1e3, "us", ne, true);
  report.metric("ingest.drain_p50_ms", quantile(s.drain_ns, 0.5) / 1e6, "ms", nd, true);
  report.metric("ingest.drain_p90_ms", quantile(s.drain_ns, 0.9) / 1e6, "ms", nd, true);
  const std::uint64_t total = std::accumulate(s.processed_per_partition.begin(),
                                              s.processed_per_partition.end(),
                                              std::uint64_t{0});
  const std::uint64_t most = s.processed_per_partition.empty()
                                 ? 0
                                 : *std::max_element(s.processed_per_partition.begin(),
                                                     s.processed_per_partition.end());
  const double mean = s.processed_per_partition.empty()
                          ? 0.0
                          : static_cast<double>(total) /
                                static_cast<double>(s.processed_per_partition.size());
  report.metric("ingest.shard_skew", mean > 0.0 ? static_cast<double>(most) / mean : 0.0,
                "ratio", s.processed_per_partition.size(), true);
  report.metric("ingest.processed", static_cast<double>(total), "count",
                s.processed_per_partition.size(), true);
  report.metric("trace.untraced_ops_per_s", s.untraced_ops_per_s, "1/s", 1, true);
  report.metric("trace.traced_ops_per_s", s.traced_ops_per_s, "1/s", 1, true);
  report.metric("trace.overhead_fraction",
                s.untraced_ops_per_s > 0.0 ? 1.0 - s.traced_ops_per_s / s.untraced_ops_per_s : 0.0,
                "ratio", 1, true);
}

std::string scratch_dir(const Options& options, const std::string& name) {
  std::filesystem::create_directories(options.out_dir);
  const std::string dir =
      options.out_dir + "/" + name + "-" + std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  return dir;
}

}  // namespace perfbench
