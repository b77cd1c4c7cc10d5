// Copyright (c) NetKernel reproduction authors.

#include "tools/nklint/nklint.h"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <map>
#include <regex>
#include <set>
#include <string>
#include <tuple>
#include <vector>

namespace fs = std::filesystem;

namespace nklint {
namespace {

// Canonical locations of the contract's ground-truth files, relative to the
// lint root. Fixture trees (tests/nklint_fixtures/*) mirror this layout.
constexpr const char* kNqeHeader = "src/shm/nqe.h";
constexpr const char* kGuestLib = "src/core/guestlib.cc";
constexpr const char* kDispatchFile = "src/core/servicelib.cc";  // ServiceLib::Dispatch
constexpr const char* kFlightHeader = "src/obs/flight_recorder.h";
constexpr const char* kFlightNames = "src/obs/flight_recorder.cc";

// ---------------------------------------------------------------------------
// Lexing: split every line into code / comment / string literals.
// ---------------------------------------------------------------------------

struct SourceFile {
  std::string rel;  // path relative to the lint root, '/'-separated
  // All vectors are indexed by line - 1. `code` preserves column positions
  // (comment and literal characters are blanked to spaces) so regexes see
  // real code only; `comment` holds the text after // or inside /* */.
  std::vector<std::string> code;
  std::vector<std::string> comment;
  std::vector<std::vector<std::string>> literals;
  std::vector<bool> comment_only;  // no code, has a comment

  int line_count() const { return static_cast<int>(code.size()); }
};

SourceFile LexFile(const fs::path& abs, std::string rel) {
  SourceFile out;
  out.rel = std::move(rel);
  std::ifstream in(abs);
  std::string line;
  bool in_block_comment = false;
  while (std::getline(in, line)) {
    const size_t n = line.size();
    std::string code(n, ' ');
    std::string comment;
    std::vector<std::string> lits;
    size_t i = 0;
    while (i < n) {
      if (in_block_comment) {
        if (line[i] == '*' && i + 1 < n && line[i + 1] == '/') {
          in_block_comment = false;
          i += 2;
        } else {
          comment += line[i++];
        }
        continue;
      }
      const char c = line[i];
      if (c == '/' && i + 1 < n && line[i + 1] == '/') {
        comment.append(line.substr(i + 2));
        break;
      }
      if (c == '/' && i + 1 < n && line[i + 1] == '*') {
        in_block_comment = true;
        i += 2;
        continue;
      }
      if (c == '"') {
        std::string lit;
        ++i;
        while (i < n && line[i] != '"') {
          if (line[i] == '\\' && i + 1 < n) {
            lit += line[i + 1];
            i += 2;
          } else {
            lit += line[i++];
          }
        }
        ++i;  // closing quote
        lits.push_back(lit);
        continue;
      }
      if (c == '\'') {
        ++i;
        while (i < n && line[i] != '\'') {
          if (line[i] == '\\') ++i;
          ++i;
        }
        ++i;
        continue;
      }
      code[i] = c;
      ++i;
    }
    const bool has_code =
        std::any_of(code.begin(), code.end(), [](char ch) { return !std::isspace(static_cast<unsigned char>(ch)); });
    out.code.push_back(std::move(code));
    out.comment.push_back(std::move(comment));
    out.literals.push_back(std::move(lits));
    out.comment_only.push_back(!has_code && !out.comment.back().empty());
  }
  return out;
}

// ---------------------------------------------------------------------------
// Small scanning helpers.
// ---------------------------------------------------------------------------

// Enum body: [first line after `enum class <name>`, closing `};`).
struct EnumBody {
  int begin = 0;  // 1-based first line of the body
  int end = 0;    // 1-based line of the closing brace
  bool found = false;
};

EnumBody FindEnumBody(const SourceFile& f, const std::string& enum_name) {
  EnumBody out;
  const std::regex head("enum\\s+class\\s+" + enum_name + "\\b");
  for (int i = 0; i < f.line_count(); ++i) {
    if (!std::regex_search(f.code[i], head)) continue;
    int depth = 0;
    for (int j = i; j < f.line_count(); ++j) {
      for (char ch : f.code[j]) {
        if (ch == '{') {
          if (++depth == 1) out.begin = j + 1;
        } else if (ch == '}') {
          if (--depth == 0) {
            out.end = j + 1;
            out.found = true;
            return out;
          }
        }
      }
    }
  }
  return out;
}

// Collects `kFoo` enumerator names (with lines) inside an enum body.
std::vector<std::pair<std::string, int>> EnumeratorsIn(const SourceFile& f, const EnumBody& body) {
  std::vector<std::pair<std::string, int>> out;
  static const std::regex kEnumerator(R"(^\s*(k[A-Za-z0-9_]+)\s*(=\s*[0-9]+\s*)?,?\s*$)");
  for (int l = body.begin; l <= body.end; ++l) {
    std::smatch m;
    const std::string& code = f.code[l - 1];
    if (std::regex_match(code, m, kEnumerator)) out.emplace_back(m[1].str(), l);
  }
  return out;
}

std::set<std::string> MentionsOf(const SourceFile& f, const std::string& enum_name) {
  std::set<std::string> out;
  const std::regex re(enum_name + "::(k[A-Za-z0-9_]+)");
  for (const std::string& code : f.code) {
    auto begin = std::sregex_iterator(code.begin(), code.end(), re);
    for (auto it = begin; it != std::sregex_iterator(); ++it) out.insert((*it)[1].str());
  }
  return out;
}

std::set<std::string> CaseLabelsOf(const SourceFile& f, const std::string& enum_name) {
  std::set<std::string> out;
  const std::regex re("case\\s+(?:[A-Za-z_][A-Za-z0-9_]*::)*" + enum_name + "::(k[A-Za-z0-9_]+)");
  for (const std::string& code : f.code) {
    auto begin = std::sregex_iterator(code.begin(), code.end(), re);
    for (auto it = begin; it != std::sregex_iterator(); ++it) out.insert((*it)[1].str());
  }
  return out;
}

// ---------------------------------------------------------------------------
// kOpTraits rows.
// ---------------------------------------------------------------------------

struct OpRow {
  std::string name;  // kSend
  int line = 0;      // row line in src/shm/nqe.h
  bool to_nsm = false;
};

// A row reads `{NqeOp::kSend, "send", RingKind::kSend, ...}`; the lexer blanks
// the name literal, so the regex sees two commas around spaces.
std::vector<OpRow> ParseOpRows(const SourceFile& nqe_h) {
  static const std::regex kRow(
      R"(\{\s*NqeOp::(k[A-Za-z0-9_]+)\s*,[^,]*,\s*RingKind::(k[A-Za-z0-9_]+))");
  std::vector<OpRow> rows;
  for (int i = 0; i < nqe_h.line_count(); ++i) {
    std::smatch m;
    if (!std::regex_search(nqe_h.code[i], m, kRow)) continue;
    const std::string ring = m[2].str();
    rows.push_back({m[1].str(), i + 1, ring == "kJob" || ring == "kSend"});
  }
  return rows;
}

// ---------------------------------------------------------------------------
// Stats structs and metric registration.
// ---------------------------------------------------------------------------

struct StatsField {
  std::string strct;
  std::string name;
  std::string file;
  int line = 0;
};

// `// nklint: stats` (own line or trailing) marks the next/current
// `struct X {` as registry-backed: every uint64_t field must be registered.
std::vector<StatsField> CollectStatsFields(const SourceFile& f) {
  std::vector<StatsField> out;
  static const std::regex kMarker(R"(^\s*nklint:\s*stats\s*$)");
  static const std::regex kStruct(R"(^\s*struct\s+([A-Za-z0-9_]+)\s*\{)");
  static const std::regex kField(R"(^\s*uint64_t\s+([a-z][a-z0-9_]*)\s*(=\s*0\s*)?;\s*$)");
  for (int i = 0; i < f.line_count(); ++i) {
    if (!std::regex_match(f.comment[i], kMarker)) continue;
    // Find the struct the marker applies to: this line or the next code line.
    int sl = i;
    std::smatch sm;
    while (sl < f.line_count() && !std::regex_search(f.code[sl], sm, kStruct)) {
      if (sl != i && !f.comment_only[sl] &&
          f.code[sl].find_first_not_of(' ') != std::string::npos) {
        break;  // hit unrelated code before a struct: marker dangles, ignore
      }
      ++sl;
    }
    if (sl >= f.line_count() || sm.empty()) continue;
    const std::string strct = sm[1].str();
    int depth = 0;
    for (int j = sl; j < f.line_count(); ++j) {
      for (char ch : f.code[j]) {
        if (ch == '{') ++depth;
        if (ch == '}') --depth;
      }
      std::smatch fm;
      if (depth > 0 && std::regex_match(f.code[j], fm, kField)) {
        out.push_back({strct, fm[1].str(), f.rel, j + 1});
      }
      if (depth == 0 && j > sl) break;
    }
  }
  return out;
}

// All string literals inside Register*/AddOwnedHistogram call parentheses,
// across the whole tree. Metric names are built as `prefix + "suffix"`, so
// the suffix literal is what identifies the registration.
std::set<std::string> CollectRegisteredNames(const std::vector<const SourceFile*>& files) {
  std::set<std::string> out;
  static const std::regex kCall(
      R"((RegisterCounter|RegisterGauge|RegisterHistogram|AddOwnedHistogram)\s*\()");
  for (const SourceFile* f : files) {
    for (int i = 0; i < f->line_count(); ++i) {
      std::smatch m;
      if (!std::regex_search(f->code[i], m, kCall)) continue;
      // Balance parens from the call's opening '(' to its close, collecting
      // every literal on the spanned lines.
      int depth = 0;
      bool started = false;
      for (int j = i; j < f->line_count(); ++j) {
        const size_t from = (j == i) ? static_cast<size_t>(m.position(0)) : 0;
        for (size_t k = from; k < f->code[j].size(); ++k) {
          if (f->code[j][k] == '(') {
            ++depth;
            started = true;
          } else if (f->code[j][k] == ')') {
            --depth;
          }
        }
        for (const std::string& lit : f->literals[j]) out.insert(lit);
        if (started && depth <= 0) break;
      }
    }
  }
  return out;
}

}  // namespace

// ---------------------------------------------------------------------------
// Public API.
// ---------------------------------------------------------------------------

std::string Format(const Diagnostic& d) {
  return d.file + ":" + std::to_string(d.line) + ": " + d.check + ": " + d.message;
}

std::vector<Diagnostic> Run(const std::string& root) {
  std::vector<Diagnostic> diags;

  // Load every .h/.cc under <root>/src, keyed by '/'-separated relative path.
  std::map<std::string, SourceFile> files;
  const fs::path src_dir = fs::path(root) / "src";
  if (!fs::is_directory(src_dir)) {
    return {{"src", 0, "op-routing", "lint root has no src/ directory: " + root}};
  }
  for (const auto& entry : fs::recursive_directory_iterator(src_dir)) {
    if (!entry.is_regular_file()) continue;
    const std::string ext = entry.path().extension().string();
    if (ext != ".h" && ext != ".cc") continue;
    std::string rel = fs::relative(entry.path(), fs::path(root)).generic_string();
    files.emplace(rel, LexFile(entry.path(), rel));
  }

  auto file = [&](const std::string& rel) -> const SourceFile* {
    auto it = files.find(rel);
    return it == files.end() ? nullptr : &it->second;
  };

  // ---- op-routing ----
  if (const SourceFile* nqe_h = file(kNqeHeader)) {
    const std::vector<OpRow> rows = ParseOpRows(*nqe_h);
    if (rows.empty()) {
      diags.push_back({nqe_h->rel, 1, "op-routing", "no kOpTraits rows found"});
    }
    const SourceFile* df = file(kDispatchFile);
    const std::set<std::string> dispatch_cases =
        df != nullptr ? CaseLabelsOf(*df, "NqeOp") : std::set<std::string>{};
    const SourceFile* gl = file(kGuestLib);
    const std::set<std::string> reap_cases =
        gl != nullptr ? CaseLabelsOf(*gl, "NqeOp") : std::set<std::string>{};
    for (const OpRow& op : rows) {
      if (op.to_nsm && dispatch_cases.count(op.name) == 0) {
        diags.push_back({nqe_h->rel, op.line, "op-routing",
                         op.name + " (guest->nsm) has no dispatch case in " +
                             std::string(kDispatchFile)});
      } else if (!op.to_nsm && reap_cases.count(op.name) == 0) {
        diags.push_back({nqe_h->rel, op.line, "op-routing",
                         op.name + " (nsm->guest) has no reap case in " + std::string(kGuestLib)});
      }
    }
  } else {
    diags.push_back({kNqeHeader, 0, "op-routing", "missing (kOpTraits lives here)"});
  }

  // ---- stats-drift ----
  {
    std::vector<const SourceFile*> impls;
    for (const auto& [rel, f] : files) {
      if (rel.size() > 3 && rel.compare(rel.size() - 3, 3, ".cc") == 0) impls.push_back(&f);
    }
    const std::set<std::string> registered = CollectRegisteredNames(impls);
    auto is_registered = [&](const std::string& field) {
      if (registered.count(field) != 0) return true;
      const std::string dotted = "." + field;
      for (const std::string& name : registered) {
        if (name.size() > dotted.size() &&
            name.compare(name.size() - dotted.size(), dotted.size(), dotted) == 0) {
          return true;
        }
      }
      return false;
    };
    for (const auto& [rel, f] : files) {
      for (const StatsField& field : CollectStatsFields(f)) {
        if (!is_registered(field.name)) {
          diags.push_back({field.file, field.line, "stats-drift",
                           field.strct + "::" + field.name +
                               " is never registered in a MetricsRegistry (no Register* call "
                               "names it)"});
        }
      }
    }
  }

  // ---- flight-coverage ----
  if (const SourceFile* fh = file(kFlightHeader)) {
    const EnumBody body = FindEnumBody(*fh, "FlightEventType");
    const SourceFile* fn = file(kFlightNames);
    const std::set<std::string> name_cases =
        fn != nullptr ? CaseLabelsOf(*fn, "FlightEventType") : std::set<std::string>{};
    std::set<std::string> emissions;
    for (const auto& [rel, f] : files) {
      if (rel == kFlightHeader || rel == kFlightNames) continue;
      const std::set<std::string> m = MentionsOf(f, "FlightEventType");
      emissions.insert(m.begin(), m.end());
    }
    if (body.found) {
      for (const auto& [name, line] : EnumeratorsIn(*fh, body)) {
        if (fn != nullptr && name_cases.count(name) == 0) {
          diags.push_back({fh->rel, line, "flight-coverage",
                           name + " has no FlightEventName case in " + std::string(kFlightNames)});
        }
        if (emissions.count(name) == 0) {
          diags.push_back({fh->rel, line, "flight-coverage",
                           name + " is never emitted anywhere in src/ — dead event kind"});
        }
      }
    }
  }

  std::sort(diags.begin(), diags.end(), [](const Diagnostic& a, const Diagnostic& b) {
    return std::tie(a.file, a.line, a.check, a.message) <
           std::tie(b.file, b.line, b.check, b.message);
  });
  return diags;
}

}  // namespace nklint
