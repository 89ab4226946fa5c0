//===- tests/trace_test.cpp - Observability subsystem tests ----------------===//
//
// Tests for src/obs/ (ctest label "obs"; scripts/check.sh also runs this
// executable under ASan and TSan):
//
//  1. Golden decision-log tests: small .gis fixtures under tests/data/ are
//     scheduled with CollectDecisions and the rendered `--explain` log is
//     compared, through a normalizing differ, against a checked-in golden
//     file.  Regenerate with GIS_UPDATE_GOLDENS=1 after an intentional
//     format or heuristic change.
//
//  2. Trace format: the Chrome-trace JSON parses, every 'B' has a matching
//     'E' on its own thread, and span nesting respects the
//     pipeline -> stage -> wave -> region -> block hierarchy.
//
//  3. Zero perturbation: the scheduled IR (and its 128-bit hash) is
//     bit-identical with tracing on or off and with the obs collection
//     flags on or off.
//
//===----------------------------------------------------------------------===//

#include "engine/CompileEngine.h"
#include "ir/Parser.h"
#include "ir/Printer.h"
#include "ir/Verifier.h"
#include "obs/Counters.h"
#include "obs/Decision.h"
#include "obs/Trace.h"
#include "sched/Pipeline.h"
#include "support/Hashing.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

using namespace gis;

#ifndef GIS_TEST_DATA_DIR
#error "GIS_TEST_DATA_DIR must be defined by the build"
#endif

namespace {

//===----------------------------------------------------------------------===
// Fixtures and helpers
//===----------------------------------------------------------------------===

std::string dataPath(const std::string &Name) {
  return std::string(GIS_TEST_DATA_DIR) + "/" + Name;
}

std::string readFileOrDie(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  EXPECT_TRUE(In.good()) << "cannot open " << Path;
  std::ostringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

/// The fixture .gis files; each has a matching <name>.explain.txt golden.
const char *const Fixtures[] = {"obs_diamond", "obs_loop_spec"};

PipelineOptions obsOptions() {
  PipelineOptions Opts;
  Opts.CollectCounters = true;
  Opts.CollectDecisions = true;
  return Opts;
}

/// Parses a fixture, schedules it, and returns the printed IR plus stats.
struct RunResult {
  std::string IR;
  PipelineStats Stats;
};

RunResult runFixture(const std::string &Name, const PipelineOptions &Opts) {
  std::unique_ptr<Module> M =
      parseModuleOrDie(readFileOrDie(dataPath(Name + ".gis")));
  RunResult R;
  R.Stats = scheduleModule(*M, MachineDescription::rs6k(), Opts);
  EXPECT_TRUE(verifyModule(*M).empty()) << Name;
  R.IR = moduleToString(*M);
  return R;
}

std::string renderedLog(const std::vector<obs::Decision> &Log) {
  std::ostringstream SS;
  obs::renderDecisions(Log, SS);
  return SS.str();
}

/// The normalizing differ: strips trailing whitespace from every line and
/// trailing blank lines from the document, so golden comparisons are
/// stable against editors and platform line-ending quirks.
std::string normalizeLog(const std::string &Text) {
  std::vector<std::string> Lines;
  std::string Cur;
  for (char C : Text) {
    if (C == '\n') {
      Lines.push_back(Cur);
      Cur.clear();
    } else if (C != '\r') {
      Cur += C;
    }
  }
  if (!Cur.empty())
    Lines.push_back(Cur);
  for (std::string &L : Lines)
    while (!L.empty() && (L.back() == ' ' || L.back() == '\t'))
      L.pop_back();
  while (!Lines.empty() && Lines.back().empty())
    Lines.pop_back();
  std::string Out;
  for (const std::string &L : Lines) {
    Out += L;
    Out += '\n';
  }
  return Out;
}

//===----------------------------------------------------------------------===
// A minimal JSON reader, just enough to validate the trace export.
//===----------------------------------------------------------------------===

class JsonReader {
public:
  explicit JsonReader(std::string_view Text) : S(Text) {}

  /// Parses one complete JSON document; returns false on any syntax error.
  bool parse() {
    skipWs();
    if (!value())
      return false;
    skipWs();
    return Pos == S.size();
  }

private:
  bool value() {
    if (Pos >= S.size())
      return false;
    switch (S[Pos]) {
    case '{':
      return object();
    case '[':
      return array();
    case '"':
      return string();
    case 't':
      return literal("true");
    case 'f':
      return literal("false");
    case 'n':
      return literal("null");
    default:
      return number();
    }
  }
  bool object() {
    ++Pos; // '{'
    skipWs();
    if (peek() == '}') {
      ++Pos;
      return true;
    }
    for (;;) {
      skipWs();
      if (!string())
        return false;
      skipWs();
      if (peek() != ':')
        return false;
      ++Pos;
      skipWs();
      if (!value())
        return false;
      skipWs();
      if (peek() == ',') {
        ++Pos;
        continue;
      }
      if (peek() == '}') {
        ++Pos;
        return true;
      }
      return false;
    }
  }
  bool array() {
    ++Pos; // '['
    skipWs();
    if (peek() == ']') {
      ++Pos;
      return true;
    }
    for (;;) {
      skipWs();
      if (!value())
        return false;
      skipWs();
      if (peek() == ',') {
        ++Pos;
        continue;
      }
      if (peek() == ']') {
        ++Pos;
        return true;
      }
      return false;
    }
  }
  bool string() {
    if (peek() != '"')
      return false;
    ++Pos;
    while (Pos < S.size() && S[Pos] != '"') {
      if (S[Pos] == '\\') {
        ++Pos;
        if (Pos >= S.size())
          return false;
      }
      ++Pos;
    }
    if (Pos >= S.size())
      return false;
    ++Pos; // closing quote
    return true;
  }
  bool number() {
    size_t Start = Pos;
    if (peek() == '-')
      ++Pos;
    while (Pos < S.size() &&
           (std::isdigit(static_cast<unsigned char>(S[Pos])) ||
            S[Pos] == '.' || S[Pos] == 'e' || S[Pos] == 'E' ||
            S[Pos] == '+' || S[Pos] == '-'))
      ++Pos;
    return Pos > Start;
  }
  bool literal(std::string_view L) {
    if (S.substr(Pos, L.size()) != L)
      return false;
    Pos += L.size();
    return true;
  }
  char peek() const { return Pos < S.size() ? S[Pos] : '\0'; }
  void skipWs() {
    while (Pos < S.size() &&
           (S[Pos] == ' ' || S[Pos] == '\n' || S[Pos] == '\t' ||
            S[Pos] == '\r'))
      ++Pos;
  }

  std::string_view S;
  size_t Pos = 0;
};

/// Runs a fixture with the tracer enabled and returns the collected
/// events.  The tracer is process-global, so tests that use it serialize
/// through gtest's single-threaded runner.
std::vector<obs::TraceEvent> tracedRun(const std::string &Name,
                                       std::string *JsonOut = nullptr) {
  obs::Tracer &Tr = obs::Tracer::instance();
  Tr.enable();
  runFixture(Name, obsOptions());
  Tr.disable();
  std::vector<obs::TraceEvent> Events = Tr.snapshot();
  if (JsonOut) {
    std::ostringstream SS;
    Tr.exportChromeJson(SS);
    *JsonOut = SS.str();
  }
  Tr.clear();
  return Events;
}

//===----------------------------------------------------------------------===
// 1. Golden decision-log tests
//===----------------------------------------------------------------------===

TEST(DecisionLogGolden, MatchesGoldenFiles) {
  const bool Update = std::getenv("GIS_UPDATE_GOLDENS") != nullptr;
  for (const char *Name : Fixtures) {
    RunResult R = runFixture(Name, obsOptions());
    std::string Log = normalizeLog(renderedLog(R.Stats.Decisions));
    EXPECT_FALSE(Log.empty()) << Name << ": fixture produced no decisions";
    std::string GoldenPath = dataPath(std::string(Name) + ".explain.txt");
    if (Update) {
      std::ofstream Out(GoldenPath, std::ios::binary);
      ASSERT_TRUE(Out.good()) << "cannot write " << GoldenPath;
      Out << Log;
      continue;
    }
    std::string Golden = normalizeLog(readFileOrDie(GoldenPath));
    EXPECT_EQ(Golden, Log)
        << Name << ": decision log diverged from golden; run with "
        << "GIS_UPDATE_GOLDENS=1 after verifying the change is intended";
  }
}

TEST(DecisionLogGolden, EveryLineCarriesRuleAndClass) {
  RunResult R = runFixture("obs_loop_spec", obsOptions());
  std::string Log = renderedLog(R.Stats.Decisions);
  std::istringstream In(Log);
  std::string Line;
  size_t Lines = 0;
  while (std::getline(In, Line)) {
    if (Line.empty())
      continue;
    ++Lines;
    EXPECT_NE(Line.find("rule="), std::string::npos) << Line;
    EXPECT_NE(Line.find("cands=["), std::string::npos) << Line;
    EXPECT_NE(Line.find("pick i"), std::string::npos) << Line;
    bool HasClass = Line.find("(own)") != std::string::npos ||
                    Line.find("(useful from") != std::string::npos ||
                    Line.find("(speculative from") != std::string::npos;
    EXPECT_TRUE(HasClass) << Line;
  }
  EXPECT_EQ(Lines, R.Stats.Decisions.size());
}

//===----------------------------------------------------------------------===
// 2. Trace format
//===----------------------------------------------------------------------===

TEST(TraceFormat, ChromeJsonParses) {
  std::string Json;
  std::vector<obs::TraceEvent> Events = tracedRun("obs_loop_spec", &Json);
  EXPECT_FALSE(Events.empty());
  EXPECT_NE(Json.find("\"traceEvents\""), std::string::npos);
  JsonReader Reader(Json);
  EXPECT_TRUE(Reader.parse()) << "trace JSON does not parse:\n" << Json;
  // Every span name that begins must also end somewhere in the export.
  for (const char *Name : {"pipeline", "wave", "region", "block"})
    EXPECT_NE(Json.find(std::string("\"name\": \"") + Name + "\""),
              std::string::npos)
        << Name;
}

/// Per-thread 'B'/'E' matching: events of one thread form balanced,
/// properly nested spans, also when engine workers trace concurrently.
TEST(TraceFormat, SpansBalancePerThread) {
  // Enough modules that both workers of the pool pick up work.
  std::vector<std::unique_ptr<Module>> Modules;
  std::vector<BatchItem> Items;
  for (unsigned Copy = 0; Copy != 8; ++Copy)
    for (const char *Name : Fixtures) {
      Modules.push_back(parseModuleOrDie(
          readFileOrDie(dataPath(std::string(Name) + ".gis"))));
      Items.push_back(BatchItem{Modules.back().get(), Name});
    }
  EngineOptions EOpts;
  EOpts.Jobs = 2;
  EOpts.UseCache = false;
  CompileEngine Engine(MachineDescription::rs6k(), obsOptions(), EOpts);
  obs::Tracer &Tr = obs::Tracer::instance();
  Tr.enable();
  Engine.compileBatch(Items);
  Tr.disable();
  std::vector<obs::TraceEvent> Events = Tr.snapshot();
  Tr.clear();
  ASSERT_FALSE(Events.empty());
  std::map<unsigned, std::vector<const obs::TraceEvent *>> Stacks;
  for (const obs::TraceEvent &E : Events) {
    auto &Stack = Stacks[E.Tid];
    if (E.Ph == 'B') {
      Stack.push_back(&E);
    } else if (E.Ph == 'E') {
      ASSERT_FALSE(Stack.empty())
          << "'E' " << E.Name << " with no open span on tid " << E.Tid;
      EXPECT_STREQ(Stack.back()->Name, E.Name) << "tid " << E.Tid;
      EXPECT_STREQ(Stack.back()->Cat, E.Cat) << "tid " << E.Tid;
      Stack.pop_back();
    }
  }
  for (const auto &KV : Stacks)
    EXPECT_TRUE(KV.second.empty())
        << KV.second.size() << " unclosed span(s) on tid " << KV.first;
}

/// A pipeline run is single-threaded, so the full hierarchy is visible on
/// a single stack: stage spans open under the pipeline span, waves under a
/// stage, regions under a wave, blocks under a region (global) or the
/// local stage, and cycle-level instants under a block.
TEST(TraceFormat, NestingRespectsHierarchy) {
  std::vector<obs::TraceEvent> Events = tracedRun("obs_loop_spec");
  std::vector<const obs::TraceEvent *> Stack;
  auto Enclosing = [&](const char *Name) {
    return std::any_of(Stack.begin(), Stack.end(),
                       [&](const obs::TraceEvent *E) {
                         return std::string_view(E->Name) == Name;
                       });
  };
  auto EnclosingCat = [&](const char *Cat) {
    return std::any_of(Stack.begin(), Stack.end(),
                       [&](const obs::TraceEvent *E) {
                         return std::string_view(E->Cat) == Cat;
                       });
  };
  size_t Blocks = 0, Picks = 0;
  for (const obs::TraceEvent &E : Events) {
    std::string_view Name = E.Name;
    std::string_view Cat = E.Cat;
    if (E.Ph == 'B') {
      if (Name == "pipeline") {
        EXPECT_TRUE(Stack.empty()) << "pipeline span not outermost";
      } else {
        EXPECT_TRUE(Enclosing("pipeline")) << Name << " outside pipeline";
      }
      if (Cat == "stage") {
        EXPECT_TRUE(Enclosing("pipeline"));
      }
      if (Name == "wave") {
        EXPECT_TRUE(EnclosingCat("stage")) << "wave outside a stage span";
      }
      if (Name == "region") {
        EXPECT_TRUE(Enclosing("wave")) << "region outside a wave";
      }
      if (Name == "block") {
        ++Blocks;
        EXPECT_TRUE(Enclosing("region") || Enclosing("local"))
            << "block outside region/local";
      }
      Stack.push_back(&E);
    } else if (E.Ph == 'E') {
      ASSERT_FALSE(Stack.empty());
      Stack.pop_back();
    } else if (Cat == "cycle") {
      ++Picks;
      EXPECT_TRUE(Enclosing("block")) << Name << " instant outside a block";
    }
  }
  EXPECT_TRUE(Stack.empty());
  EXPECT_GT(Blocks, 0u);
  EXPECT_GT(Picks, 0u);
}

TEST(TraceFormat, DisabledTracerCollectsNothing) {
  obs::Tracer &Tr = obs::Tracer::instance();
  Tr.clear();
  ASSERT_FALSE(Tr.enabled());
  runFixture("obs_diamond", obsOptions());
  EXPECT_TRUE(Tr.snapshot().empty());
  EXPECT_EQ(Tr.droppedEvents(), 0u);
}

//===----------------------------------------------------------------------===
// 3. Zero perturbation
//===----------------------------------------------------------------------===

TEST(TracePerturbation, TracingDoesNotChangeSchedules) {
  for (const char *Name : Fixtures) {
    RunResult Off = runFixture(Name, obsOptions());
    obs::Tracer &Tr = obs::Tracer::instance();
    Tr.enable();
    RunResult On = runFixture(Name, obsOptions());
    Tr.disable();
    Tr.clear();
    EXPECT_EQ(Off.IR, On.IR) << Name;
    EXPECT_TRUE(hashKey128(Off.IR) == hashKey128(On.IR)) << Name;
    EXPECT_EQ(renderedLog(Off.Stats.Decisions),
              renderedLog(On.Stats.Decisions))
        << Name;
    EXPECT_TRUE(Off.Stats.Counters == On.Stats.Counters) << Name;
  }
}

TEST(TracePerturbation, CollectionFlagsDoNotChangeSchedules) {
  for (const char *Name : Fixtures) {
    PipelineOptions Bare;
    Bare.CollectCounters = false;
    Bare.CollectDecisions = false;
    RunResult Off = runFixture(Name, Bare);
    RunResult On = runFixture(Name, obsOptions());
    EXPECT_EQ(Off.IR, On.IR) << Name;
    EXPECT_TRUE(hashKey128(Off.IR) == hashKey128(On.IR)) << Name;
    // The bare run must not have paid for collection.
    EXPECT_EQ(Off.Stats.Decisions.size(), 0u);
    EXPECT_EQ(Off.Stats.Counters.ruleWinTotal(), 0u);
  }
}

} // namespace
