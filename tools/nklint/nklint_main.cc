// Copyright (c) NetKernel reproduction authors.
// nklint CLI: lint the tree rooted at --root (default: cwd) and exit nonzero
// on any diagnostic. --github re-emits diagnostics as workflow commands so CI
// job logs annotate the offending lines.

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "tools/nklint/nklint.h"

namespace {

void Usage(const char* argv0) {
  std::printf(
      "usage: %s [--root <dir>] [--github]\n"
      "\n"
      "Statically checks what the compiler cannot in the NQE protocol\n"
      "contract (op-routing, stats-drift, flight-coverage) over the tree\n"
      "under <dir>/src. Exits 1 when any check fails; diagnostics are\n"
      "`file:line: check: message`.\n"
      "\n"
      "  --root <dir>  tree to lint (must contain src/); default: .\n"
      "  --github      additionally emit ::error workflow commands so the\n"
      "                CI job log annotates the offending lines\n",
      argv0);
}

}  // namespace

int main(int argc, char** argv) {
  std::string root = ".";
  bool github = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--root") == 0 && i + 1 < argc) {
      root = argv[++i];
    } else if (std::strcmp(argv[i], "--github") == 0) {
      github = true;
    } else if (std::strcmp(argv[i], "--help") == 0 || std::strcmp(argv[i], "-h") == 0) {
      Usage(argv[0]);
      return 0;
    } else {
      std::fprintf(stderr, "nklint: unknown argument '%s'\n", argv[i]);
      Usage(argv[0]);
      return 2;
    }
  }

  const std::vector<nklint::Diagnostic> diags = nklint::Run(root);
  for (const nklint::Diagnostic& d : diags) {
    std::printf("%s\n", nklint::Format(d).c_str());
    if (github) {
      std::printf("::error file=%s,line=%d,title=nklint %s::%s\n", d.file.c_str(), d.line,
                  d.check.c_str(), d.message.c_str());
    }
  }
  if (!diags.empty()) {
    std::fprintf(stderr, "nklint: %zu problem(s) in %s\n", diags.size(), root.c_str());
    return 1;
  }
  std::printf("nklint: OK — NQE protocol contract clean under %s\n", root.c_str());
  return 0;
}
