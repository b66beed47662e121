#pragma once

// Shared helpers for the mini-app workloads.

#include <cmath>
#include <string>

#include "apps/workload.hpp"
#include "support/error.hpp"

namespace fastfit::apps {

/// Application-level sanity check: throws AppError (-> APP_DETECTED) with
/// the workload's own error message when the condition fails. This is the
/// analogue of an application's `if (...) MPI_Abort(...)` error handling.
/// The message string is built only on failure.
inline void app_check(bool ok, const char* message) {
  if (!ok) throw AppError(message);
}

/// Numeric sanity: NaN or Inf in a state variable is something mature
/// applications detect and abort on.
inline void app_check_finite(double value, const char* what) {
  if (!std::isfinite(value)) {
    throw AppError(std::string(what) + " is not finite");
  }
}

}  // namespace fastfit::apps
