// GraphCheck diagnostics: structured findings produced by the static graph
// verifier (analysis/verifier.h). Every check emits a stable "GCnnn" code so
// callers — Session strict mode, the graphcheck CLI, tests — can match on
// the finding rather than on message text.
//
// Code table (severity policy in DESIGN.md §10):
//   GC001  duplicate node name                          ERROR
//   GC002  unknown op                                   ERROR
//   GC003  unresolvable input                           ERROR
//   GC004  input output-slot out of range               ERROR
//   GC005  OpDef arity violation                        ERROR
//   GC006  cycle (diagnostic names the cycle path)      ERROR
//   GC007  invalid device string                        ERROR
//   GC008  duplicate / redundant control edge           WARNING
//   GC009  input dtype mismatch (provable)              ERROR
//   GC010  provably incompatible shapes                 ERROR
//   GC011  dead node (no consumers, stateless)          INFO
//   GC012  variable read with no initializer in graph   WARNING
//   GC013  guaranteed queue deadlock                    ERROR
//   GC014  queue enqueue/dequeue dtype mismatch         ERROR
//   GC015  unmatched _Send/_Recv across partitions      ERROR
//   GC016  stateful op bound to a resource on another   ERROR
//          task (Assign/AssignAdd across job/task)
//   GC017  missing or mistyped required attr            ERROR
//   GC018  static peak memory exceeds the step budget   ERROR
//          (memory planner; strict mode rejects at
//          compile time instead of mid-step OOM)
//   GC019  variable overwritten while a consumer of     WARNING
//          its read is unordered w.r.t. the write
//   GC020  top-k lifetime-stretching tensors with       INFO
//          scheduling hints (report-only)
#pragma once

#include <string>
#include <vector>

#include "core/status.h"

namespace tfhpc::analysis {

enum class Severity { kInfo, kWarning, kError };

const char* SeverityName(Severity s);

struct Diagnostic {
  Severity severity = Severity::kError;
  std::string code;     // "GC001".."GC020"
  std::string node;     // offending node name; empty = graph-level finding
  std::string message;  // what is wrong
  std::string hint;     // how to fix it; may be empty

  // "error GC006 [node 'a']: cycle detected: a -> b -> a (hint: ...)"
  std::string ToString() const;
};

std::string FormatDiagnostics(const std::vector<Diagnostic>& diags);
// FormatDiagnostics over the ERROR findings of `diags` alone.
std::string FormatErrors(const std::vector<Diagnostic>& diags);
bool HasErrors(const std::vector<Diagnostic>& diags);
int CountAtLeast(const std::vector<Diagnostic>& diags, Severity floor);

// Statuses carrying a diagnostic code prefix their message with "[GCnnn] "
// (Graph::AddNode arity failures and shape-inference functions use this so
// runtime errors and verifier findings share one code space). Returns the
// code, or "" when the message is uncoded.
std::string ExtractCode(const std::string& message);
// Strips a leading "[GCnnn] " prefix, if present.
std::string StripCode(const std::string& message);

}  // namespace tfhpc::analysis
