#include "analysis/diagnostic.h"

#include <cctype>

namespace tfhpc::analysis {

const char* SeverityName(Severity s) {
  switch (s) {
    case Severity::kInfo: return "info";
    case Severity::kWarning: return "warning";
    case Severity::kError: return "error";
  }
  return "unknown";
}

std::string Diagnostic::ToString() const {
  std::string out = SeverityName(severity);
  out += " ";
  out += code;
  if (!node.empty()) out += " [node '" + node + "']";
  out += ": " + message;
  if (!hint.empty()) out += " (hint: " + hint + ")";
  return out;
}

std::string FormatDiagnostics(const std::vector<Diagnostic>& diags) {
  std::string out;
  for (const Diagnostic& d : diags) {
    out += d.ToString();
    out += '\n';
  }
  return out;
}

std::string FormatErrors(const std::vector<Diagnostic>& diags) {
  std::string out;
  for (const Diagnostic& d : diags) {
    if (d.severity == Severity::kError) out += d.ToString() + '\n';
  }
  return out;
}

bool HasErrors(const std::vector<Diagnostic>& diags) {
  for (const Diagnostic& d : diags) {
    if (d.severity == Severity::kError) return true;
  }
  return false;
}

int CountAtLeast(const std::vector<Diagnostic>& diags, Severity floor) {
  int n = 0;
  for (const Diagnostic& d : diags) {
    if (d.severity >= floor) ++n;
  }
  return n;
}

std::string ExtractCode(const std::string& message) {
  // "[GCnnn] ..." with exactly three digits.
  if (message.size() < 8 || message[0] != '[' || message[1] != 'G' ||
      message[2] != 'C' || message[6] != ']') {
    return "";
  }
  for (int i = 3; i < 6; ++i) {
    if (!std::isdigit(static_cast<unsigned char>(message[static_cast<size_t>(i)]))) return "";
  }
  return message.substr(1, 5);
}

std::string StripCode(const std::string& message) {
  if (ExtractCode(message).empty()) return message;
  size_t start = 7;
  while (start < message.size() && message[start] == ' ') ++start;
  return message.substr(start);
}

}  // namespace tfhpc::analysis
