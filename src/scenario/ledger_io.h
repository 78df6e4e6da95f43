// JSON serialization of the ground-truth error ledger, so a materialized
// scenario dataset carries its injected-error record next to the scene
// files — the sweep harness reloads it to score cached cells without
// regenerating.
#ifndef FIXY_SCENARIO_LEDGER_IO_H_
#define FIXY_SCENARIO_LEDGER_IO_H_

#include <string>

#include "common/result.h"
#include "json/json.h"
#include "sim/ledger.h"

namespace fixy::scenario {

json::Value LedgerToJson(const sim::GtLedger& ledger);

/// Inverse of LedgerToJson. Errors: InvalidArgument on a malformed
/// document (wrong format tag, unknown error type, missing fields).
Result<sim::GtLedger> LedgerFromJson(const json::Value& value);

/// Saves (pretty-printed, through WriteFileAtomic) / loads the ledger at
/// `path`.
Status SaveLedger(const sim::GtLedger& ledger, const std::string& path);
Result<sim::GtLedger> LoadLedger(const std::string& path);

/// `<directory>/gt_ledger.json`, the ledger file a materialized scenario
/// dataset carries.
std::string LedgerPath(const std::string& directory);

}  // namespace fixy::scenario

#endif  // FIXY_SCENARIO_LEDGER_IO_H_
