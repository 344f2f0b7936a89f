#include "checks.h"

#include <cmath>

namespace perfbench {

std::string check_checksums(double original, double optimized) {
  return std::abs(original - optimized) <= 1e-9 * (std::abs(original) + 1.0)
             ? ""
             : "checksum-mismatch";
}

std::string check_hit(const bwc::server::Response& response,
                      const std::string& stored_body) {
  if (response.status != "ok") return "status-" + response.status;
  if (!response.cache_hit) return "cache-miss";
  if (response.result_json != stored_body) return "body-mismatch";
  return "";
}

std::string exception_code(const std::exception& e) {
  const std::string what = e.what();
  // pass::PassManager raises "verification failed after <pass>:" followed
  // by the verifier's report, whose violations read "error [<code>] ...".
  if (what.rfind("verification failed", 0) == 0) {
    const std::size_t at = what.find("error [");
    const std::size_t end =
        at == std::string::npos ? at : what.find(']', at + 7);
    return "verify:" + (end == std::string::npos
                            ? std::string("unknown")
                            : what.substr(at + 7, end - at - 7));
  }
  if (!what.empty() && what[0] == '[') {
    const std::size_t end = what.find(']');
    if (end != std::string::npos) return "error:" + what.substr(1, end - 1);
  }
  return "error:exception";
}

bool is_verifier_rejection(const std::string& code) {
  return code.rfind("verify:", 0) == 0;
}

}  // namespace perfbench
