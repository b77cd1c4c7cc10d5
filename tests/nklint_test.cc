// Copyright (c) NetKernel reproduction authors.
// Tests for tools/nklint, the static NQE-protocol checker.
//
// Each fixture under tests/nklint_fixtures/ is a miniature source tree
// mirroring the real layout (src/shm/nqe.h, src/core/*.cc, src/obs/*).
// `clean` is fully wired; every other tree seeds exactly one violation, and
// the tests assert nklint reports it — and nothing else — under the right
// check name. The last test is the real gate: the actual repository tree
// must lint clean.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "tools/nklint/nklint.h"

namespace {

using nklint::Diagnostic;

std::vector<Diagnostic> RunFixture(const std::string& name) {
  return nklint::Run(std::string(NKLINT_FIXTURES_DIR) + "/" + name);
}

std::string Dump(const std::vector<Diagnostic>& diags) {
  std::string out;
  for (const Diagnostic& d : diags) out += nklint::Format(d) + "\n";
  return out;
}

TEST(NkLintFixtures, CleanTreeHasNoDiagnostics) {
  const auto diags = RunFixture("clean");
  EXPECT_TRUE(diags.empty()) << Dump(diags);
}

TEST(NkLintFixtures, UnroutedOpIsDetected) {
  const auto diags = RunFixture("unrouted_op");
  ASSERT_EQ(diags.size(), 1u) << Dump(diags);
  EXPECT_EQ(diags[0].check, "op-routing");
  EXPECT_EQ(diags[0].file, "src/shm/nqe.h");
  EXPECT_NE(diags[0].message.find("kConnect"), std::string::npos) << diags[0].message;
  EXPECT_NE(diags[0].message.find("dispatch case"), std::string::npos) << diags[0].message;
}

TEST(NkLintFixtures, OrphanCounterIsDetected) {
  const auto diags = RunFixture("orphan_counter");
  ASSERT_EQ(diags.size(), 1u) << Dump(diags);
  EXPECT_EQ(diags[0].check, "stats-drift");
  EXPECT_EQ(diags[0].file, "src/core/coreengine.h");
  EXPECT_NE(diags[0].message.find("lost_counter"), std::string::npos) << diags[0].message;
}

TEST(NkLint, DiagnosticFormatIsGreppable) {
  const Diagnostic d{"src/shm/nqe.h", 42, "op-routing", "kFoo is unrouted"};
  EXPECT_EQ(nklint::Format(d), "src/shm/nqe.h:42: op-routing: kFoo is unrouted");
}

// The gate over the real tree: every kOpTraits row must be dispatched (or
// reaped) on its receiving side, every registry-backed counter registered,
// and every flight event named and emitted, as the code exists right now.
TEST(NkLint, RealTreeIsClean) {
  const auto diags = nklint::Run(NKLINT_SOURCE_ROOT);
  EXPECT_TRUE(diags.empty()) << Dump(diags);
}

}  // namespace
