//===- gisbench/src/Common.cpp - Samples, spans, metric helpers -----------===//

#include "Bench.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <unordered_map>

namespace gisbench {

uint64_t mixSeed(uint64_t Seed, uint64_t Tag, uint64_t Index) {
  // splitmix64 over the three words, so nearby seeds give unrelated inputs.
  uint64_t Z = Seed * 0x9e3779b97f4a7c15ULL + Tag * 0xbf58476d1ce4e5b9ULL +
               Index * 0x94d049bb133111ebULL + 0x632be59bd9b4e019ULL;
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebULL;
  return Z ^ (Z >> 31);
}

double Samples::percentile(double P) const {
  if (V.empty())
    return 0;
  std::vector<double> S = V;
  std::sort(S.begin(), S.end());
  size_t Rank = static_cast<size_t>(std::ceil(P / 100.0 * S.size()));
  return S[Rank ? Rank - 1 : 0];
}

double Samples::mean() const {
  if (V.empty())
    return 0;
  double Sum = 0;
  for (double X : V)
    Sum += X;
  return Sum / V.size();
}

TimingSummary summarize(const Samples &S, const std::string &Unit) {
  TimingSummary T;
  T.Unit = Unit;
  T.Median = S.median();
  T.P99 = S.percentile(99);
  T.Max = S.percentile(100);
  T.Count = S.size();
  return T;
}

void setMetric(std::vector<Metric> &Ms, const std::string &Name, double Value,
               const std::string &Unit) {
  for (Metric &M : Ms)
    if (M.Name == Name) {
      M.Value = Value;
      M.Unit = Unit;
      return;
    }
  Ms.push_back(Metric{Name, Value, Unit});
}

void addFailedRatio(Outcome &Out) {
  double R = Out.Attempted ? ratio(Out.Failed, Out.Attempted) : 1.0;
  setMetric(Out.EndToEnd, "failed_ratio", R, "ratio");
  Out.Deterministic["failed_ratio"] = R;
}

//===----------------------------------------------------------------------===
// Spans
//===----------------------------------------------------------------------===

namespace {
int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}
} // namespace

int Tracer::begin(const char *Name, uint64_t Id) {
  Span S;
  S.Name = Name;
  S.Id = Id;
  S.Parent = Open.empty() ? -1 : Open.back();
  S.Allocs = threadAllocs();
  S.Bytes = threadAllocBytes();
  S.StartNs = nowNs();
  Spans.push_back(S);
  Open.push_back(static_cast<int>(Spans.size() - 1));
  return Open.back();
}

void Tracer::end(int Index) {
  Span &S = Spans[Index];
  S.EndNs = nowNs();
  S.Allocs = threadAllocs() - S.Allocs;
  S.Bytes = threadAllocBytes() - S.Bytes;
  Open.pop_back();
}

std::map<std::string, SpanTotals>
aggregateSpans(const std::vector<const Tracer *> &Tracers) {
  std::map<std::string, SpanTotals> Totals;
  for (const Tracer *T : Tracers) {
    const std::vector<Span> &Ss = T->spans();
    std::vector<int64_t> ChildNs(Ss.size(), 0);
    std::vector<uint64_t> ChildAllocs(Ss.size(), 0), ChildBytes(Ss.size(), 0);
    for (const Span &S : Ss)
      if (S.Parent >= 0) {
        ChildNs[S.Parent] += S.EndNs - S.StartNs;
        ChildAllocs[S.Parent] += S.Allocs;
        ChildBytes[S.Parent] += S.Bytes;
      }
    for (size_t K = 0; K != Ss.size(); ++K) {
      SpanTotals &A = Totals[Ss[K].Name];
      int64_t Dur = Ss[K].EndNs - Ss[K].StartNs;
      ++A.Count;
      A.SelfSeconds += (Dur - ChildNs[K]) * 1e-9;
      A.SelfAllocs += Ss[K].Allocs - ChildAllocs[K];
      A.SelfBytes += Ss[K].Bytes - ChildBytes[K];
    }
  }
  return Totals;
}

bool writeSpans(const std::string &Path,
                const std::vector<const Tracer *> &Tracers) {
  std::ofstream OS(Path);
  if (!OS)
    return false;
  int64_t Origin = INT64_MAX;
  for (const Tracer *T : Tracers)
    for (const Span &S : T->spans())
      Origin = std::min(Origin, S.StartNs);
  OS << "{\"traceEvents\": [";
  bool First = true;
  char Buf[512];
  for (const Tracer *T : Tracers)
    for (size_t K = 0; K != T->spans().size(); ++K) {
      const Span &S = T->spans()[K];
      std::snprintf(Buf, sizeof(Buf),
                    "%s\n{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                    "\"tid\": %u, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                    "{\"id\": %llu, \"index\": %zu, \"parent\": %d, "
                    "\"allocs\": %llu, \"bytes\": %llu}}",
                    First ? "" : ",", S.Name, T->thread(),
                    (S.StartNs - Origin) * 1e-3, (S.EndNs - S.StartNs) * 1e-3,
                    static_cast<unsigned long long>(S.Id), K, S.Parent,
                    static_cast<unsigned long long>(S.Allocs),
                    static_cast<unsigned long long>(S.Bytes));
      OS << Buf;
      First = false;
    }
  OS << "\n]}\n";
  return static_cast<bool>(OS);
}

//===----------------------------------------------------------------------===
// Host-speed calibration
//===----------------------------------------------------------------------===

namespace {
/// Keeps the reference task's result observable, so it is not optimized
/// away.
volatile uint64_t ReferenceSink = 0;

/// The reference task: a fixed amount of small-vector churn, hash-map
/// updates and string building, about 2 ms on a 2.x GHz Xeon.
double referenceTask() {
  Clock::time_point T0 = Clock::now();
  uint64_t X = 88172645463325252ull, Sum = 0;
  auto Next = [&X] {
    X ^= X << 13;
    X ^= X >> 7;
    X ^= X << 17;
    return X;
  };
  for (int Rep = 0; Rep != 10; ++Rep) {
    std::vector<std::vector<uint32_t>> Lists(200);
    for (auto &L : Lists)
      for (unsigned I = 0, N = Next() % 24; I != N; ++I)
        L.push_back(static_cast<uint32_t>(Next()));
    std::unordered_map<uint32_t, uint32_t> Counts;
    for (const auto &L : Lists)
      for (uint32_t E : L)
        ++Counts[E % 4096];
    std::string S;
    for (int I = 0; I != 200; ++I)
      S += std::to_string(Next() % 1000);
    Sum += Counts.size() + S.size();
  }
  ReferenceSink = Sum;
  return secondsSince(T0);
}
} // namespace

void HostSpeed::sample() {
  double T = now();
  double D = referenceTask();
  Samples.emplace_back(T, D);
  Spent += D;
}

void HostSpeed::maybeSample(double Every) {
  if (Samples.empty() || now() - Samples.back().first >= Every)
    sample();
}

double HostSpeed::factorAt(double T) const {
  if (Samples.empty())
    return 1;
  std::vector<std::pair<double, double>> ByDistance;
  for (const auto &[When, D] : Samples)
    ByDistance.emplace_back(std::abs(When - T), D);
  std::sort(ByDistance.begin(), ByDistance.end());
  std::vector<double> Near;
  for (const auto &[Dist, D] : ByDistance)
    if (Dist <= 1.0 || Near.size() < 5)
      Near.push_back(D);
  std::nth_element(Near.begin(), Near.begin() + Near.size() / 2, Near.end());
  return NominalRefSeconds / Near[Near.size() / 2];
}

double HostSpeed::medianRef() const {
  gisbench::Samples S;
  for (const auto &Sample : Samples)
    S.add(Sample.second);
  return S.median();
}

void timeSetup(Outcome &Out, unsigned Reps,
               const std::function<void()> &Setup) {
  Samples Raw, Scaled;
  HostSpeed Speed(Clock::now());
  for (unsigned K = 0; K != Reps; ++K) {
    Clock::time_point T0 = Clock::now();
    Setup();
    const double S = secondsSince(T0);
    for (int I = 0; I != 3; ++I)
      Speed.sample();
    Raw.add(S);
    Scaled.add(S * Speed.factorAt(Speed.now()));
  }
  setMetric(Out.EndToEnd, "setup_s", Scaled.median(), "s");
  Out.Timings["setup_s"] = summarize(Scaled, "s");
  Out.Timings["setup_s_raw"] = summarize(Raw, "s");
}

//===----------------------------------------------------------------------===
// Peak resident memory
//===----------------------------------------------------------------------===

void resetPeakRss() {
  // Linux resets VmHWM to the current RSS on "5"; where the write is not
  // allowed the peak simply covers the whole process lifetime.
  if (std::FILE *F = std::fopen("/proc/self/clear_refs", "w")) {
    std::fputs("5", F);
    std::fclose(F);
  }
}

double peakRssMiB(int Pid) {
  std::string Path =
      Pid ? "/proc/" + std::to_string(Pid) + "/status" : "/proc/self/status";
  std::ifstream In(Path);
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("VmHWM:", 0) == 0) {
      std::istringstream LS(Line.substr(6));
      double Kb = 0;
      LS >> Kb;
      return Kb / 1024.0;
    }
  return 0;
}

} // namespace gisbench
