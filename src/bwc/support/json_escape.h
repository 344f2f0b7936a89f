// JSON string escaping, shared by the modules that write JSON by hand:
// the pass pipeline's remark reports (pass/report.h) and the bwcd wire
// protocol (server/json.h).
#pragma once

#include <string>

namespace bwc {

/// Escape a string for embedding in a JSON document (no quotes added):
/// quotes, backslashes, \n, \r and \t by name, every other control
/// character as \u00XX.
std::string json_escape(const std::string& s);

/// `"escaped"` -- the quoted JSON rendering of a string.
std::string json_quote(const std::string& s);

}  // namespace bwc
