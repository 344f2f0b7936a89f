// Per-request correctness checks. Each returns an empty string when the
// request passed and a stable failure code otherwise; the benchmark
// groups failures by these codes.
#pragma once

#include <exception>
#include <string>

#include "bwc/server/protocol.h"

namespace perfbench {

/// "" when the checksums of an original and an optimized program agree,
/// to the relative tolerance bwcopt uses for "semantics: preserved";
/// else "checksum-mismatch".
std::string check_checksums(double original, double optimized);

/// Check a timed daemon response: status ok, a cache hit, and a body
/// byte-identical to the one stored when the entry was primed.
std::string check_hit(const bwc::server::Response& response,
                      const std::string& stored_body);

/// Code for an exception a request raised. A verifier rejection becomes
/// "verify:<diagnostic code>" (e.g. "verify:storage-reduction-capacity");
/// any other error becomes "error:<bracketed code>" or "error:exception".
std::string exception_code(const std::exception& e);

/// True for codes made by exception_code() from a verifier rejection.
bool is_verifier_rejection(const std::string& code);

}  // namespace perfbench
