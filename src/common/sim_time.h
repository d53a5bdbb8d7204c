// Simulation time conventions.
//
// SimTime is seconds since midnight of simulation day 0 as a double.
// Multi-day experiments simply run past 86 400.
#pragma once

#include <cmath>
#include <cstdio>
#include <string>

namespace bussense {

using SimTime = double;

constexpr SimTime kSecond = 1.0;
constexpr SimTime kMinute = 60.0;
constexpr SimTime kHour = 3600.0;
constexpr SimTime kDay = 86400.0;

/// Largest |SimTime| the analysis pipeline accepts from an upload (about
/// 31,700 years). Beyond it a fusion period or day index no longer fits
/// its integer type, so casting one would be undefined.
constexpr SimTime kMaxSimTime = 1e12;

/// True for a finite time within ±kMaxSimTime (false for NaN).
inline bool in_sim_range(SimTime t) { return std::abs(t) <= kMaxSimTime; }

/// Seconds since midnight of the day containing `t`.
inline SimTime time_of_day(SimTime t) {
  const double d = std::fmod(t, kDay);
  return d < 0 ? d + kDay : d;
}

/// Day index (0-based) containing `t`.
inline int day_index(SimTime t) { return static_cast<int>(std::floor(t / kDay)); }

/// Builds a SimTime on day `day` at hh:mm:ss.
inline SimTime at_clock(int day, int hh, int mm = 0, double ss = 0.0) {
  return day * kDay + hh * kHour + mm * kMinute + ss;
}

/// Formats the time-of-day portion as "HH:MM" (e.g. traffic-map snapshots).
inline std::string format_clock(SimTime t) {
  const int s = static_cast<int>(time_of_day(t));
  char buf[16];
  std::snprintf(buf, sizeof buf, "%02d:%02d", s / 3600, (s % 3600) / 60);
  return buf;
}

/// km/h -> m/s.
constexpr double kmh_to_ms(double kmh) { return kmh / 3.6; }
/// m/s -> km/h.
constexpr double ms_to_kmh(double ms) { return ms * 3.6; }

}  // namespace bussense
