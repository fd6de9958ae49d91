// Minimal JSON export of run telemetry, for consumption by external
// plotting/analysis tooling without a CSV parsing step.
//
// Only the subset of JSON this library needs to *emit* is implemented —
// objects, arrays, numbers, strings (escaped), booleans, null — via a
// small writer; there is intentionally no parser.
#pragma once

#include <iosfwd>
#include <string>

#include "core/json_min.h"
#include "fl/fedms.h"

namespace fedms::metrics {

// Serializes a run as {"config": ..., "rounds": [...], "traffic": ...}.
void write_run_json(std::ostream& os, const fl::FedMsConfig& config,
                    const fl::RunResult& result);
void save_run_json(const std::string& path, const fl::FedMsConfig& config,
                   const fl::RunResult& result);

// JSON string escaping (quotes, backslash, control characters).
using core::json_escape;

}  // namespace fedms::metrics
