// Copyright (c) NetKernel reproduction authors.
// nklint: static checker for the cross-file facts of the NQE protocol that a
// compiler cannot see.
//
// The op contract itself is the constexpr kOpTraits table in src/shm/nqe.h,
// whose consistency static_asserts check at compile time. What is left needs
// a look across files: nklint reads the tree with a lightweight lexer
// (comments, string literals, brace depth, case labels), not a C++ parse.
//
// Checks:
//   op-routing       every kOpTraits row riding a guest ring (job/send) has a
//                    dispatch case in ServiceLib's driver (the one NSM-side
//                    switch, whatever the NSM's transport); every row riding
//                    a guest-facing ring (completion/receive) has a reap case
//                    in GuestLib. Those switches end in `default:`, so
//                    -Wswitch cannot flag a missing op.
//   stats-drift      every uint64_t field of a `// nklint: stats` struct is
//                    registered under a dotted name in some Register* call
//   flight-coverage  every FlightEventType has a name string and is emitted
//                    somewhere outside the recorder itself

#ifndef TOOLS_NKLINT_NKLINT_H_
#define TOOLS_NKLINT_NKLINT_H_

#include <string>
#include <vector>

namespace nklint {

struct Diagnostic {
  std::string file;  // path relative to the lint root
  int line = 0;
  std::string check;
  std::string message;
};

// "file:line: check: message" — the format CI greps and editors jump on.
std::string Format(const Diagnostic& d);

// Runs every check over `root` (a directory containing src/). Returns
// diagnostics sorted by file then line; empty means the tree is clean.
std::vector<Diagnostic> Run(const std::string& root);

}  // namespace nklint

#endif  // TOOLS_NKLINT_NKLINT_H_
