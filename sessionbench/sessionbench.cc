// Session benchmark: whole BCFL sessions (BcflCoordinator::Create -> Run)
// on three named workloads, observed from outside the library.
//
//   sessionbench --workload W --seed N --seconds S --trace 0|1 --work-dir D
//
// Prints one JSON document of raw observations on stdout (run.py turns it
// into the benchmark's metrics). Untraced runs (--trace 0) time sessions
// with MetricsRegistry and Tracer disabled and the round ledger on; round
// latencies come from timestamping each ledger line as it arrives through
// a FIFO. Traced runs (--trace 1) run one untraced and one traced session,
// then time calls into each layer's public functions on the traced
// session's own inputs (its committed blocks, replayed contract state,
// group models and owner partitions) and read the counters the registry
// already keeps. Every session is checked by an outside replay of its
// chain; the verdicts ride in the output and never abort the run.
//
// Network delay lives on the simulated clock, so the wall-clock figures
// here measure computation, never network waits.

#include <fcntl.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <sys/statfs.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "chain/block_log.h"
#include "chain/contract_host.h"
#include "common/bytes.h"
#include "core/checkpoint.h"
#include "core/coordinator.h"
#include "core/fl_contract.h"
#include "core/reward_contract.h"
#include "core/slash_contract.h"
#include "core/state_keys.h"
#include "crypto/schnorr.h"
#include "crypto/sha256.h"
#include "crypto/shamir.h"
#include "data/digits.h"
#include "fault/fault_plan.h"
#include "fl/client.h"
#include "ml/logistic_regression.h"
#include "obs/json_reader.h"
#include "obs/metrics.h"
#include "obs/round_ledger.h"
#include "obs/trace.h"
#include "secureagg/aggregator.h"
#include "secureagg/fixed_point.h"
#include "secureagg/participant.h"
#include "shapley/group_sv.h"
#include "shapley/utility.h"

#ifndef SESSIONBENCH_BUILD_TYPE
#define SESSIONBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace bcfl;
using Clock = std::chrono::steady_clock;
namespace fs = std::filesystem;

double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Process-wide origin of every timestamp the output carries.
const Clock::time_point kOrigin = Clock::now();
double StampMs(Clock::time_point t) { return MsBetween(kOrigin, t); }

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

// --- Workloads ---------------------------------------------------------

struct Workload {
  const char* name;
  uint32_t rounds;
  uint32_t groups;
  bool faulted;  ///< Fault plan, norm bound, reward pool, state dir, kill.
  /// A run holds max(2, seconds / session_budget_s) sessions: a count fixed
  /// by --seconds, so every run of a workload does the same work. The
  /// budgets are near each session's length with its check on a 4-core
  /// Xeon VM (15, 5.3 and 4.2 s), except paper_long's: its late-round
  /// latencies spread most between runs, so it gets a third session and
  /// its runs last about 1.3x --seconds.
  double session_budget_s;
};

constexpr Workload kWorkloads[] = {
    {"paper_long", 60, 3, false, 11.5},
    {"groupsv_m9", 12, 9, false, 5.8},
    {"faulted_durable", 30, 3, true, 4.3},
};

// The faulted_durable plan: an owner crash (Shamir recovery), a forged
// share, an equivocator and a poisoner (three slashes), lost submissions
// (retries), a miner crash (view changes) and a coordinator kill that is
// resumed in-process.
constexpr char kFaultPlan[] =
    "crash owner 1 @2; bad-share owner 3 @2; drop-submit owner 5 @4..25 x1; "
    "equivocate-submit owner 6 @8; poison-update owner 4 @14 *50; "
    "crash miner 4 @10..15; kill @22";
// What the plan dictates: owner -> round of retirement / conviction.
const std::map<uint32_t, uint64_t> kPlanRetired = {
    {1, 2}, {3, 2}, {4, 14}, {6, 8}};
const std::map<uint32_t, uint64_t> kPlanSlashed = {{3, 2}, {4, 14}, {6, 8}};

constexpr size_t kPoolThreads = 4;
constexpr size_t kMinSetups = 9;

core::BcflConfig MakeConfig(const Workload& w, uint64_t seed) {
  core::BcflConfig config;
  config.num_owners = 9;
  config.num_miners = 5;
  config.rounds = w.rounds;
  config.num_groups = w.groups;
  config.seed = seed;
  config.sigma = 1.0;  // BcflConfig defaults to 0: identical owners.
  config.digits.num_instances = 5620;
  config.local.epochs = 5;
  config.local.learning_rate = 0.05;
  config.pool_threads = kPoolThreads;
  if (w.faulted) {
    config.update_norm_bound = 5.0;
    config.reward_pool = 1'000'000;
    config.fault_plan = *fault::FaultPlan::Parse(kFaultPlan);
  }
  return config;
}

// --- Minimal JSON emitter ---------------------------------------------------
// obs::JsonWriter prints numbers with six decimals; the output must carry
// every digit measured.

class Json {
 public:
  Json& Open(char c) {
    Comma();
    out_ += c;
    need_comma_ = false;
    return *this;
  }
  Json& Close(char c) {
    out_ += c;
    need_comma_ = true;
    return *this;
  }
  Json& Key(const std::string& key) {
    Str(key);
    out_ += ':';
    need_comma_ = false;
    return *this;
  }
  Json& Num(double value) {
    Comma();
    char buf[32];
    if (std::isfinite(value)) {
      std::snprintf(buf, sizeof(buf), "%.17g", value);
    } else {
      std::snprintf(buf, sizeof(buf), "null");
    }
    out_ += buf;
    need_comma_ = true;
    return *this;
  }
  Json& Str(const std::string& value) {
    Comma();
    out_ += '"';
    for (const char c : value) {
      if (c == '"' || c == '\\') {
        out_ += '\\';
        out_ += c;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        out_ += ' ';
      } else {
        out_ += c;
      }
    }
    out_ += '"';
    need_comma_ = true;
    return *this;
  }
  Json& Field(const std::string& key, double value) {
    return Key(key).Num(value);
  }
  Json& Field(const std::string& key, const std::string& value) {
    return Key(key).Str(value);
  }
  const std::string& str() const { return out_; }

 private:
  void Comma() {
    if (need_comma_) out_ += ',';
    need_comma_ = false;
  }
  std::string out_;
  bool need_comma_ = false;
};

// --- The benchmark's own spans (traced runs) ----------------------------

class SpanRecorder {
 public:
  struct Span {
    std::string name;
    double start_ms = 0;
    double end_ms = 0;
    int parent = -1;
  };

  int Begin(const std::string& name) {
    const int parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back({name, StampMs(Clock::now()), 0, parent});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }
  void End(int id) {
    spans_[id].end_ms = StampMs(Clock::now());
    stack_.pop_back();
  }
  bool WriteJson(const std::string& path) const {
    Json json;
    json.Open('[');
    for (const Span& s : spans_) {
      json.Open('{');
      json.Field("name", s.name);
      json.Field("start_ms", s.start_ms);
      json.Field("end_ms", s.end_ms);
      json.Field("parent", s.parent);
      json.Close('}');
    }
    json.Close(']');
    std::ofstream out(path);
    out << json.str() << "\n";
    return static_cast<bool>(out);
  }

 private:
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// Runs `fn`, returns its wall milliseconds and, when `spans` is set,
/// records it as a span nested under whatever span is open.
template <typename Fn>
double Timed(SpanRecorder* spans, const std::string& name, Fn&& fn) {
  const int id = spans != nullptr ? spans->Begin(name) : -1;
  const auto t0 = Clock::now();
  fn();
  const double ms = MsBetween(t0, Clock::now());
  if (spans != nullptr) spans->End(id);
  return ms;
}

// --- Round-latency observer ---------------------------------------------

/// Reads the round ledger through a FIFO on a blocked thread and stamps
/// each completed JSON line as it arrives: no polling, no core spent.
class LedgerObserver {
 public:
  struct Arrival {
    std::string line;
    Clock::time_point at;
  };

  LedgerObserver() = default;
  LedgerObserver(const LedgerObserver&) = delete;
  LedgerObserver& operator=(const LedgerObserver&) = delete;
  ~LedgerObserver() {
    if (reader_.joinable()) reader_.join();
    if (fd_ >= 0) ::close(fd_);
  }

  /// Creates the FIFO and opens its read end, so the ledger's blocking
  /// open for writing finds a reader at once.
  Status Open(const std::string& path) {
    path_ = path;
    ::unlink(path.c_str());
    if (::mkfifo(path.c_str(), 0600) != 0) {
      return Status::Internal("mkfifo " + path + ": " + std::strerror(errno));
    }
    fd_ = ::open(path.c_str(), O_RDONLY | O_NONBLOCK);
    if (fd_ < 0) {
      return Status::Internal("open " + path + ": " + std::strerror(errno));
    }
    return Status::OK();
  }

  /// Starts reading; call after the writer opened the FIFO.
  void Start() {
    const int flags = ::fcntl(fd_, F_GETFL);
    ::fcntl(fd_, F_SETFL, flags & ~O_NONBLOCK);
    reader_ = std::thread([this] { ReadLoop(); });
  }

  /// Joins the reader (the writer must have closed) and removes the FIFO.
  std::vector<Arrival> Finish() {
    if (reader_.joinable()) reader_.join();
    ::close(fd_);
    fd_ = -1;
    ::unlink(path_.c_str());
    return std::move(arrivals_);
  }

 private:
  void ReadLoop() {
    std::string line;
    char buf[1 << 16];
    for (;;) {
      const ssize_t got = ::read(fd_, buf, sizeof(buf));
      if (got < 0 && errno == EINTR) continue;
      if (got <= 0) break;
      const auto now = Clock::now();
      for (ssize_t i = 0; i < got; ++i) {
        if (buf[i] != '\n') {
          line.push_back(buf[i]);
          continue;
        }
        arrivals_.push_back({std::move(line), now});
        line.clear();
      }
    }
  }

  std::string path_;
  int fd_ = -1;
  std::thread reader_;
  std::vector<Arrival> arrivals_;
};

// --- One session ----------------------------------------------------------

struct NetDelta {
  uint64_t messages = 0;
  uint64_t bytes = 0;
  uint64_t sim_us = 0;
};

/// One Run() call: when it started and ended, and when each round-ledger
/// record arrived, with the round it reported.
struct Segment {
  double start_ms = 0;  ///< ms since kOrigin.
  double end_ms = 0;
  std::vector<double> arrival_ms;
  std::vector<int64_t> rounds;
};

struct Session {
  double setup_s = 0;
  double resume_s = 0;  ///< faulted_durable: AttachPersistence{resume}.
  double replay_s = 0;  ///< Outside genesis->tip replay.
  std::vector<Segment> segments;
  NetDelta net;            ///< Traffic during Run().
  std::optional<core::BcflRunResult> result;
  std::unique_ptr<core::BcflCoordinator> coord;  ///< Holds the final chain.
  std::string state_dir;
  std::vector<std::string> problems;
  std::vector<bool> round_ok;
  std::string sv_digest, weights_digest, tip_hash;
};

/// One Run() call with the ledger streamed through a FIFO.
Result<core::BcflRunResult> RunSegment(core::BcflCoordinator* coord,
                                       const std::string& fifo,
                                       Session* session) {
  LedgerObserver observer;
  BCFL_RETURN_IF_ERROR(observer.Open(fifo));
  obs::RoundLedger ledger;
  BCFL_RETURN_IF_ERROR(ledger.Open(fifo));
  observer.Start();
  coord->set_round_ledger(&ledger);
  const net::SimulatedNetwork& network = coord->engine().network();
  const NetDelta before{network.stats().messages_sent,
                        network.stats().bytes_sent,
                        network.clock().NowMicros()};
  const auto t0 = Clock::now();
  Result<core::BcflRunResult> result = coord->Run();
  const auto t1 = Clock::now();
  ledger.Close();
  coord->set_round_ledger(nullptr);
  Segment segment{StampMs(t0), StampMs(t1), {}, {}};
  session->net.messages += network.stats().messages_sent - before.messages;
  session->net.bytes += network.stats().bytes_sent - before.bytes;
  session->net.sim_us += network.clock().NowMicros() - before.sim_us;
  for (const auto& arrival : observer.Finish()) {
    auto record = obs::ParseJson(arrival.line);
    const obs::JsonValue* round = record.ok() ? record->Find("round") : nullptr;
    segment.arrival_ms.push_back(StampMs(arrival.at));
    segment.rounds.push_back(round != nullptr && round->is_number()
                                 ? static_cast<int64_t>(round->number)
                                 : -1);
  }
  session->segments.push_back(std::move(segment));
  return result;
}

/// Create (+ fresh persistence on faulted_durable), the timed set-up.
Result<std::unique_ptr<core::BcflCoordinator>> SetUp(
    const core::BcflConfig& config, const std::string& state_dir,
    double* setup_s) {
  const auto t0 = Clock::now();
  BCFL_ASSIGN_OR_RETURN(auto coord, core::BcflCoordinator::Create(config));
  if (!state_dir.empty()) {
    core::PersistenceOptions persist;
    persist.state_dir = state_dir;
    BCFL_RETURN_IF_ERROR(coord->AttachPersistence(persist));
  }
  *setup_s = MsBetween(t0, Clock::now()) / 1e3;
  return coord;
}

Status RunSession(const Workload& w, const core::BcflConfig& config,
                  const std::string& work_dir, int index, Session* session) {
  const std::string fifo = work_dir + "/ledger.fifo";
  if (w.faulted) {
    session->state_dir = work_dir + "/state_" + std::to_string(index);
    fs::remove_all(session->state_dir);
  }
  BCFL_ASSIGN_OR_RETURN(session->coord,
                        SetUp(config, session->state_dir, &session->setup_s));
  Result<core::BcflRunResult> run =
      RunSegment(session->coord.get(), fifo, session);
  if (w.faulted) {
    // The planned kill stops Run() mid-session. The coordinator dies (its
    // block log closes); a fresh one resumes from the state dir.
    if (run.ok() || !session->coord->was_killed()) {
      return run.ok() ? Status::Internal("planned kill did not fire")
                      : run.status();
    }
    session->coord.reset();
    BCFL_ASSIGN_OR_RETURN(session->coord,
                          core::BcflCoordinator::Create(config));
    core::PersistenceOptions persist;
    persist.state_dir = session->state_dir;
    persist.resume = true;
    const auto t0 = Clock::now();
    BCFL_RETURN_IF_ERROR(session->coord->AttachPersistence(persist));
    session->resume_s = MsBetween(t0, Clock::now()) / 1e3;
    run = RunSegment(session->coord.get(), fifo, session);
  }
  if (!run.ok()) return run.status();
  session->result = std::move(*run);
  return Status::OK();
}

// --- Outside replay and the correctness check -----------------------------

struct ReplayTimings {
  double sig_verify_ms = 0;
  double snapshot_ms = 0;
  double exec_ms = 0;
  double state_root_ms = 0;
  size_t blocks = 0;
};

std::shared_ptr<chain::ContractHost> MakeHost(const ml::Dataset& test_set) {
  auto host = std::make_shared<chain::ContractHost>();
  auto fl = std::make_shared<core::FlContract>(test_set);
  (void)host->Register(fl);
  (void)host->Register(std::make_shared<core::RewardContract>());
  (void)host->Register(std::make_shared<core::SlashContract>(fl));
  return host;
}

/// Replays the canonical chain genesis -> tip through a fresh host, the
/// way a miner executes a block: verify signatures, snapshot, execute,
/// hash the state. Every block's header state root must be reproduced.
chain::ContractState ReplayChain(core::BcflCoordinator* coord,
                                 ReplayTimings* t, SpanRecorder* spans,
                                 std::vector<std::string>* problems) {
  const auto host = MakeHost(coord->test_set());
  const chain::Blockchain& chain = coord->engine().CanonicalChain();
  chain::ContractState state;
  for (uint64_t h = 1; h <= chain.Height(); ++h) {
    const chain::Block block = *chain.GetBlock(h);
    chain::ContractState next;
    crypto::Digest root{};
    t->sig_verify_ms += Timed(spans, "chain.sig_verify", [&] {
      host->PreVerifySignatures(block.txs);
    });
    t->snapshot_ms +=
        Timed(spans, "chain.snapshot", [&] { next = state.Snapshot(); });
    Status exec = Status::OK();
    t->exec_ms += Timed(spans, "chain.execute_block", [&] {
      auto receipts = host->ExecuteBlock(block.txs, &next);
      if (!receipts.ok()) exec = receipts.status();
    });
    t->state_root_ms +=
        Timed(spans, "chain.state_root", [&] { root = next.StateRoot(); });
    if (!exec.ok()) {
      problems->push_back("block " + std::to_string(h) +
                          " failed to execute: " + exec.ToString());
    } else if (root != block.header.state_root) {
      problems->push_back("block " + std::to_string(h) +
                          ": replayed state root differs from the header");
    }
    state = std::move(next);
    ++t->blocks;
  }
  return state;
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

std::string DigestDoubles(const std::vector<double>& values) {
  return crypto::DigestToHex(crypto::Sha256::Hash(
      reinterpret_cast<const uint8_t*>(values.data()),
      values.size() * sizeof(double)));
}

/// Checks one session against its own chain; fills round_ok, problems
/// and the digests. Returns the replayed tip state for the layer probes.
chain::ContractState CheckSession(const Workload& w, Session* s,
                                  ReplayTimings* timings,
                                  SpanRecorder* spans) {
  s->round_ok.assign(w.rounds, false);
  if (!s->result.has_value()) return {};
  const core::BcflRunResult& r = *s->result;
  const auto t0 = Clock::now();
  chain::ContractState state = ReplayChain(s->coord.get(), timings, spans,
                                           &s->problems);
  s->replay_s = MsBetween(t0, Clock::now()) / 1e3;
  const uint32_t n = s->coord->config().num_owners;

  // Session-level checks; any failure fails every round of the session.
  for (uint32_t i = 0; i < n; ++i) {
    auto total = core::GetDouble(state, core::keys::TotalSv(i));
    if (r.total_sv.size() != n || !total.ok() ||
        !SameBits(*total, r.total_sv[i])) {
      s->problems.push_back("total SV of owner " + std::to_string(i) +
                            " differs from the replay");
    }
  }
  auto global = core::GetMatrix(state, core::keys::GlobalModel(w.rounds - 1));
  if (!global.ok() || global->data().size() != r.global_weights.data().size() ||
      std::memcmp(global->data().data(), r.global_weights.data().data(),
                  global->data().size() * sizeof(double)) != 0) {
    s->problems.push_back("global weights differ from the replay");
  }
  if (w.faulted && r.retired_at != kPlanRetired) {
    s->problems.push_back("retired owners differ from the fault plan");
  }
  if (w.faulted && r.slashed_at != kPlanSlashed) {
    s->problems.push_back("slashed owners differ from the fault plan");
  }
  const bool session_ok = s->problems.empty();

  // Per round: the ledger reported it once, it completed on the replayed
  // chain, and the replayed SVs equal Run()'s bit for bit.
  std::vector<int> seen(w.rounds, 0);
  for (const Segment& segment : s->segments) {
    for (int64_t id : segment.rounds) {
      if (id >= 0 && id < static_cast<int64_t>(w.rounds)) ++seen[id];
    }
  }
  for (uint32_t round = 0; round < w.rounds; ++round) {
    bool ok = seen[round] == 1 && r.per_round_sv.size() == w.rounds &&
              state.Has(core::keys::RoundComplete(round));
    for (uint32_t i = 0; ok && i < n; ++i) {
      auto sv = core::GetDouble(state, core::keys::RoundSv(round, i));
      ok = sv.ok() && SameBits(*sv, r.per_round_sv[round][i]);
    }
    if (!ok) {
      s->problems.push_back("round " + std::to_string(round) +
                            " missing or differs from the replay");
    }
    s->round_ok[round] = ok && session_ok;
  }

  std::vector<double> sv_bits;
  for (const auto& row : r.per_round_sv) {
    sv_bits.insert(sv_bits.end(), row.begin(), row.end());
  }
  sv_bits.insert(sv_bits.end(), r.total_sv.begin(), r.total_sv.end());
  s->sv_digest = DigestDoubles(sv_bits);
  s->weights_digest = DigestDoubles(r.global_weights.data());
  s->tip_hash = crypto::DigestToHex(
      s->coord->engine().CanonicalChain().Tip().header.Hash());
  return state;
}

// --- Per-layer probes (traced runs) ---------------------------------------

using LayerMap = std::map<std::string, double>;

/// Median wall ms of `reps` calls of `fn`, each recorded as a span.
template <typename Fn>
double MedianMs(SpanRecorder* spans, const std::string& name, int reps,
                Fn&& fn) {
  std::vector<double> ms;
  for (int i = 0; i < reps; ++i) ms.push_back(Timed(spans, name, fn));
  return Median(ms);
}

std::vector<std::vector<size_t>> RoundGroups(const core::BcflConfig& config,
                                             uint64_t round) {
  const auto perm = shapley::PermutationFromSeed(config.seed_e, round,
                                                 config.num_owners);
  return *shapley::GroupUsers(perm, config.num_groups);
}

void ProbeChainTip(Session* s, const chain::ContractState& state,
                   const std::string& work_dir, SpanRecorder* spans,
                   LayerMap* out) {
  (*out)["chain.state_root_ms_tip"] = MedianMs(
      spans, "chain.state_root_tip", 5, [&] { (void)state.StateRoot(); });
  (*out)["chain.state_entries_tip"] = static_cast<double>(state.size());
  double bytes = 0;
  for (const auto& key : state.KeysWithPrefix("")) {
    bytes += static_cast<double>(key.size() + state.Get(key)->size());
  }
  (*out)["chain.state_mb_tip"] = bytes / 1e6;

  // BlockLog::Append (fsync included) of every committed block into a
  // scratch log next to the state dirs.
  const std::string log_path = work_dir + "/probe_blocks.log";
  fs::remove(log_path);
  auto log = chain::BlockLog::Open(log_path);
  const chain::Blockchain& chain = s->coord->engine().CanonicalChain();
  double total_ms = 0;
  for (uint64_t h = 1; log.ok() && h <= chain.Height(); ++h) {
    const chain::Block block = *chain.GetBlock(h);
    total_ms += Timed(spans, "chain.blocklog_append",
                      [&] { (void)log->Append(block); });
  }
  if (log.ok()) log->Close();
  fs::remove(log_path);
  (*out)["chain.blocklog_append_ms"] =
      chain.Height() > 0 ? total_ms / static_cast<double>(chain.Height()) : 0;
}

/// GroupSV on every round's decoded group models read from the replayed
/// state; the result must equal the on-chain per-round SVs.
void ProbeShapley(Session* s, const chain::ContractState& state,
                  SpanRecorder* spans, LayerMap* out) {
  const core::BcflConfig& config = s->coord->config();
  shapley::TestAccuracyUtility utility(s->coord->test_set());
  shapley::GroupShapley evaluator(config.num_owners,
                                  {config.num_groups, config.seed_e},
                                  &utility);
  const auto& retired = s->result->retired_at;
  double total_ms = 0, evals = 0;
  for (uint32_t round = 0; round < config.rounds; ++round) {
    std::vector<std::vector<size_t>> groups;
    std::vector<ml::Matrix> models;
    const auto all = RoundGroups(config, round);
    for (uint32_t j = 0; j < all.size(); ++j) {
      std::vector<size_t> survivors;
      for (size_t member : all[j]) {
        auto it = retired.find(static_cast<uint32_t>(member));
        if (it == retired.end() || it->second > round) {
          survivors.push_back(member);
        }
      }
      auto model = core::GetMatrix(state, core::keys::GroupModel(round, j));
      if (survivors.empty() || !model.ok()) continue;
      groups.push_back(std::move(survivors));
      models.push_back(std::move(*model));
    }
    Result<shapley::GroupShapleyRound> result =
        Status::Internal("not evaluated");
    total_ms += Timed(spans, "shapley.group_sv", [&] {
      result = evaluator.EvaluateRoundFromGroupModels(groups,
                                                      std::move(models));
    });
    bool same = result.ok();
    for (uint32_t i = 0; same && i < config.num_owners; ++i) {
      same = SameBits(result->user_values[i],
                      s->result->per_round_sv[round][i]);
    }
    if (!same) {
      s->problems.push_back("GroupSV of round " + std::to_string(round) +
                            " from the replayed group models differs");
      s->round_ok[round] = false;
      continue;
    }
    evals += static_cast<double>(result->engine_stats.utility_evaluations);
  }
  (*out)["shapley.group_sv_ms"] = total_ms / config.rounds;
  (*out)["shapley.utility_evals_per_round"] = evals / config.rounds;
}

void ProbeOwners(Session* s, const chain::ContractState& state,
                 SpanRecorder* spans, LayerMap* out) {
  const core::BcflConfig& config = s->coord->config();
  const uint32_t n = config.num_owners;
  const uint64_t last = config.rounds - 1;
  const auto global_model = core::GetMatrix(state, core::keys::GlobalModel(last - 1));
  const chain::Blockchain& chain = s->coord->engine().CanonicalChain();
  std::optional<chain::Transaction> tx;
  for (uint64_t h = 1; !tx && h <= chain.Height(); ++h) {
    const chain::Block block = *chain.GetBlock(h);
    for (const auto& candidate : block.txs) {
      if (candidate.method == "submit_update") {
        tx = candidate;
        break;
      }
    }
  }
  if (!global_model.ok() || !tx.has_value()) {
    s->problems.push_back("replayed chain lacks the owner-layer probe inputs");
    return;
  }
  const ml::Matrix& global_in = *global_model;

  // fl: each owner's local update on its own partition, from the global
  // model the last round started with.
  std::vector<fl::FlClient> clients;
  const auto datasets = s->coord->OwnerDatasets();
  for (uint32_t i = 0; i < n; ++i) clients.emplace_back(i, datasets[i], config.local);
  (*out)["fl.local_update_ms"] = MedianMs(spans, "fl.local_updates", 3, [&] {
    for (const auto& client : clients) {
      Timed(spans, "fl.local_update", [&] { (void)client.LocalUpdate(global_in); });
    }
  }) / n;

  // ml: test-split accuracy of the final global model.
  const auto model = *ml::LogisticRegression::FromWeights(s->result->global_weights);
  (*out)["ml.accuracy_ms"] = MedianMs(spans, "ml.accuracy", 15, [&] {
    (void)model.Accuracy(s->coord->test_set());
  });

  // secureagg: pairwise masking of the encoded global model under the last
  // round's grouping, per owner.
  Xoshiro256 rng(config.seed ^ 0x5e55);
  crypto::DiffieHellman dh;
  std::vector<std::unique_ptr<secureagg::SecureAggParticipant>> parts;
  for (uint32_t i = 0; i < n; ++i) {
    parts.push_back(std::make_unique<secureagg::SecureAggParticipant>(
        i, dh, &rng, /*use_self_mask=*/false));
  }
  for (auto& p : parts) {
    for (const auto& q : parts) {
      if (p->id() != q->id()) (void)p->RegisterPeer(q->id(), q->public_key());
    }
  }
  const secureagg::FixedPointCodec codec(
      static_cast<int>(config.fixed_point_bits));
  const std::vector<uint64_t> encoded = codec.EncodeMatrix(global_in);
  std::vector<std::vector<secureagg::OwnerId>> group_of(n);
  for (const auto& group : RoundGroups(config, last)) {
    std::vector<secureagg::OwnerId> members(group.begin(), group.end());
    for (size_t member : group) group_of[member] = members;
  }
  (*out)["secureagg.mask_ms"] = MedianMs(spans, "secureagg.masks", 3, [&] {
    for (uint32_t i = 0; i < n; ++i) {
      Timed(spans, "secureagg.mask", [&] {
        (void)parts[i]->MaskUpdate(last, group_of[i], encoded);
      });
    }
  }) / n;

  // secureagg: Feldman-verify a threshold of one owner's dealt DH-key
  // shares and reconstruct the key, as the recovery of a dropout does.
  const size_t threshold = s->coord->recovery_threshold();
  const auto scheme = *crypto::ShamirSecretSharing::Create(threshold, n);
  const auto dealt = *parts[1]->ShareSecrets(threshold, n, &rng);
  const Bytes expected_key = parts[1]->private_key().ToBytes();
  bool recovered = true;
  (*out)["secureagg.recover_ms"] = MedianMs(spans, "secureagg.recover", 7, [&] {
    std::vector<crypto::ShamirShare> shares;
    for (size_t k = 0; k < n && shares.size() < threshold; ++k) {
      if (k == 1) continue;
      if (!scheme.VerifyShare(dealt.dh_private_shares[k], dealt.dh_commitment)) {
        recovered = false;
      }
      shares.push_back(dealt.dh_private_shares[k]);
    }
    auto keys = secureagg::SecureAggregator::ReconstructSecrets32(
        {shares}, threshold, n);
    recovered = recovered && keys.ok() &&
                Bytes((*keys)[0].begin(), (*keys)[0].end()) == expected_key;
  });
  if (!recovered) s->problems.push_back("Shamir probe did not recover the key");

  // crypto: Schnorr over the session's first submit_update transaction.
  const crypto::Schnorr schnorr;
  const auto key = schnorr.GenerateKeyPair(&rng);
  (*out)["crypto.schnorr_sign_us"] =
      1e3 * MedianMs(spans, "crypto.schnorr_sign", 31,
                     [&] { tx->Sign(schnorr, key, &rng); });
  bool verified = true;
  (*out)["crypto.schnorr_verify_us"] =
      1e3 * MedianMs(spans, "crypto.schnorr_verify", 31,
                     [&] { verified = verified && tx->VerifySignature(schnorr); });
  if (!verified) s->problems.push_back("Schnorr probe failed to verify");
}

/// SaveCheckpoint of the session's own checkpoint: the one the state dir
/// holds on faulted_durable, one built from the session's end state on the
/// in-memory workloads.
void ProbeCheckpoint(Session* s, const std::string& work_dir,
                     SpanRecorder* spans, LayerMap* out) {
  core::SessionCheckpoint cp;
  if (!s->state_dir.empty()) {
    auto loaded = core::LoadCheckpoint(s->state_dir + "/checkpoint.bckp");
    if (!loaded.ok()) {
      s->problems.push_back("cannot load the session checkpoint: " +
                            loaded.status().ToString());
      return;
    }
    cp = std::move(*loaded);
  } else {
    const core::BcflRunResult& r = *s->result;
    chain::ConsensusEngine& engine = s->coord->engine();
    cp.config_fingerprint = s->coord->ConfigFingerprint();
    cp.next_round = r.per_round_sv.size();
    cp.network = engine.network().SaveResumeState();
    cp.tip_height = engine.CanonicalChain().Height();
    cp.tip_hash = engine.CanonicalChain().Tip().header.Hash();
    cp.miner_heights = engine.MinerHeights();
    cp.global_weights = r.global_weights;
    cp.per_round_sv = r.per_round_sv;
    cp.round_accuracies = r.round_accuracies;
    cp.blocks_committed = r.blocks_committed;
    cp.total_transactions = r.total_transactions;
    cp.retired_at = r.retired_at;
    cp.slashed_at = r.slashed_at;
  }
  const std::string path = work_dir + "/probe_checkpoint.bckp";
  (*out)["core.checkpoint_save_ms"] = MedianMs(
      spans, "core.checkpoint_save", 5, [&] { (void)core::SaveCheckpoint(cp, path); });
  fs::remove(path);
}

void ReadRegistry(const Session& s, LayerMap* out) {
  const obs::MetricsSnapshot snap = obs::MetricsRegistry::Global().Snapshot();
  auto counter = [&](const std::string& name) {
    auto it = snap.counters.find(name);
    return it != snap.counters.end() ? static_cast<double>(it->second) : 0.0;
  };
  auto count = [&](const std::string& name) {
    for (const auto& h : snap.histograms) {
      if (h.name == name) return static_cast<double>(h.count);
    }
    return 0.0;
  };
  const double rounds = static_cast<double>(s.coord->config().rounds);
  const double committed = counter("chain.block.committed");
  (*out)["chain.executions_per_block"] =
      committed > 0 ? (count("chain.propose_us") + count("chain.validate_us") +
                       count("chain.commit_us")) / committed
                    : 0;
  const double hits = counter("chain.sigcache.hits");
  const double lookups = hits + counter("chain.sigcache.misses");
  (*out)["chain.sigcache_hit_rate"] = lookups > 0 ? hits / lookups : 0;
  (*out)["chain.view_changes"] = counter("chain.consensus.retries");
  (*out)["shapley.evals_per_round"] = counter("contract.round_evals") / rounds;
  (*out)["core.resume_blocks_replayed"] =
      counter("core.resume.blocks_replayed");
}

// --- Output -------------------------------------------------------------

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string FsType(const std::string& path) {
  struct statfs st {};
  if (::statfs(path.c_str(), &st) != 0) return "unknown";
  static const std::map<long, const char*> kNames = {
      {0xEF53, "ext4"},       {0x58465342, "xfs"},   {0x01021994, "tmpfs"},
      {0x794c7630, "overlay"}, {0x9123683E, "btrfs"}, {0x6969, "nfs"},
      {0x65735546, "fuse"},   {0x2FC12FC1, "zfs"},   {0x61756673, "aufs"},
      {0x858458f6, "ramfs"}};
  auto it = kNames.find(static_cast<long>(st.f_type));
  if (it != kNames.end()) return it->second;
  char hex[32];
  std::snprintf(hex, sizeof(hex), "0x%lx", static_cast<long>(st.f_type));
  return hex;
}

void WriteArray(Json* json, const std::string& key,
                const std::vector<double>& values) {
  json->Key(key).Open('[');
  for (double v : values) json->Num(v);
  json->Close(']');
}

void WriteSession(Json* json, const Session& s) {
  json->Open('{');
  json->Field("setup_s", s.setup_s);
  json->Field("resume_s", s.resume_s);
  json->Field("replay_s", s.replay_s);
  json->Key("segments").Open('[');
  for (const Segment& segment : s.segments) {
    json->Open('{');
    json->Field("start_ms", segment.start_ms);
    json->Field("end_ms", segment.end_ms);
    WriteArray(json, "arrival_ms", segment.arrival_ms);
    json->Key("rounds").Open('[');
    for (int64_t round : segment.rounds) json->Num(static_cast<double>(round));
    json->Close(']');
    json->Close('}');
  }
  json->Close(']');
  json->Field("rounds_expected", static_cast<double>(s.round_ok.size()));
  json->Field("rounds_failed",
              static_cast<double>(std::count(s.round_ok.begin(),
                                             s.round_ok.end(), false)));
  json->Field("sv_digest", s.sv_digest);
  json->Field("weights_digest", s.weights_digest);
  json->Field("tip_hash", s.tip_hash);
  json->Key("problems").Open('[');
  for (const auto& p : s.problems) json->Str(p);
  json->Close(']');
  json->Close('}');
}

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir;
};

bool ParseArgs(int argc, char** argv, Options* o) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string arg = argv[i];
    const char* v = argv[i + 1];
    if (arg == "--workload") o->workload = v;
    else if (arg == "--seed") o->seed = std::strtoull(v, nullptr, 10);
    else if (arg == "--seconds") o->seconds = std::atof(v);
    else if (arg == "--trace") o->trace = std::string(v) == "1";
    else if (arg == "--work-dir") o->work_dir = v;
    else return false;
  }
  return argc % 2 == 1 && !o->workload.empty() && !o->work_dir.empty();
}

void SetObs(bool on) {
  obs::MetricsRegistry::set_enabled(on);
  obs::Tracer::Global().set_enabled(on);
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!ParseArgs(argc, argv, &opt)) {
    std::fprintf(stderr,
                 "usage: sessionbench --workload W --seed N --seconds S "
                 "--trace 0|1 --work-dir D\n");
    return 2;
  }
  const Workload* w = nullptr;
  for (const auto& candidate : kWorkloads) {
    if (opt.workload == candidate.name) w = &candidate;
  }
  if (w == nullptr) {
    std::fprintf(stderr, "unknown workload %s\n", opt.workload.c_str());
    return 2;
  }
  fs::create_directories(opt.work_dir);
  const core::BcflConfig config = MakeConfig(*w, opt.seed);
  SetObs(false);

  // Traced runs: one untraced session for the overhead baseline, then one
  // traced session whose inputs the layer probes use.
  const int sessions =
      opt.trace ? 2
                : std::max(2, static_cast<int>(opt.seconds / w->session_budget_s));
  std::vector<Session> done(sessions);
  std::vector<double> setups;
  SpanRecorder spans;
  SpanRecorder* recorder = opt.trace ? &spans : nullptr;
  LayerMap layers;
  chain::ContractState tip_state;
  ReplayTimings traced_replay;
  size_t pool_threads = 0;
  for (int i = 0; i < sessions; ++i) {
    Session& s = done[i];
    const bool traced = opt.trace && i == 1;
    if (traced) {
      obs::MetricsRegistry::Global().Reset();
      obs::Tracer::Global().Reset();
      SetObs(true);
    }
    const int id = recorder != nullptr
                       ? recorder->Begin(traced ? "session.traced" : "session")
                       : -1;
    Status st = RunSession(*w, config, opt.work_dir, i, &s);
    if (recorder != nullptr) recorder->End(id);
    if (traced) SetObs(false);
    if (!st.ok()) s.problems.push_back("session failed: " + st.ToString());
    if (s.coord != nullptr) {
      pool_threads = s.coord->pool_threads_in_use();
      setups.push_back(s.setup_s);
    }
    ReplayTimings timings;
    chain::ContractState state =
        CheckSession(*w, &s, &timings, traced ? recorder : nullptr);
    if (traced && s.result.has_value()) {
      traced_replay = timings;
      tip_state = std::move(state);
      ReadRegistry(s, &layers);
    }
    if (!traced) {
      // Only the traced session's inputs outlive their check.
      if (!s.state_dir.empty()) fs::remove_all(s.state_dir);
      s.coord.reset();
      s.result.reset();
    }
  }
  // Extra set-ups so setup_s is a median of several.
  while (setups.size() < kMinSetups) {
    const std::string dir =
        w->faulted ? opt.work_dir + "/state_setup" : std::string();
    if (!dir.empty()) fs::remove_all(dir);
    double setup_s = 0;
    auto coord = SetUp(config, dir, &setup_s);
    if (!coord.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n", coord.status().ToString().c_str());
      return 1;
    }
    setups.push_back(setup_s);
    coord->reset();
    if (!dir.empty()) fs::remove_all(dir);
  }

  if (opt.trace && done[1].result.has_value()) {
    Session& s = done[1];
    const double blocks = static_cast<double>(traced_replay.blocks);
    layers["chain.exec_ms"] = traced_replay.exec_ms / blocks;
    layers["chain.snapshot_ms"] = traced_replay.snapshot_ms / blocks;
    layers["chain.state_root_ms"] = traced_replay.state_root_ms / blocks;
    layers["chain.sig_verify_ms"] = traced_replay.sig_verify_ms / blocks;
    ProbeChainTip(&s, tip_state, opt.work_dir, recorder, &layers);
    ProbeShapley(&s, tip_state, recorder, &layers);
    ProbeOwners(&s, tip_state, recorder, &layers);
    ProbeCheckpoint(&s, opt.work_dir, recorder, &layers);
    layers["data.generate_ms"] = MedianMs(recorder, "data.generate", 5, [&] {
      data::DigitsConfig digits = config.digits;
      digits.seed = config.seed;
      (void)data::DigitsGenerator(digits).Generate();
    });
    const double rounds = config.rounds;
    const core::BcflRunResult& r = *s.result;
    layers["chain.blocks_per_round"] = r.blocks_committed / rounds;
    layers["net.messages_per_round"] = s.net.messages / rounds;
    layers["net.mb_per_round"] = s.net.bytes / 1e6 / rounds;
    layers["net.sim_ms_per_round"] = s.net.sim_us / 1e3 / rounds;
    layers["fault.recoveries"] = static_cast<double>(r.recover_transactions);
    layers["fault.slashes"] = static_cast<double>(r.slash_transactions);
    layers["fault.submit_retries"] = static_cast<double>(r.submission_retries);
    auto rps = [&](const Session& x) {
      double run_ms = 0;
      for (const Segment& segment : x.segments) {
        run_ms += segment.end_ms - segment.start_ms;
      }
      return run_ms > 0 ? 1e3 * rounds / run_ms : 0.0;
    };
    layers["obs.tracing_overhead"] =
        rps(done[0]) > 0 ? rps(done[1]) / rps(done[0]) : 0;
    const std::string span_path = opt.work_dir + "/spans_" + opt.workload +
                                  "_" + std::to_string(opt.seed) + ".json";
    if (!spans.WriteJson(span_path)) {
      std::fprintf(stderr, "cannot write %s\n", span_path.c_str());
    }
    if (!s.state_dir.empty()) fs::remove_all(s.state_dir);
  }

  struct rusage usage {};
  ::getrusage(RUSAGE_SELF, &usage);
  Json json;
  json.Open('{');
  json.Field("workload", opt.workload);
  json.Field("seed", static_cast<double>(opt.seed));
  json.Field("trace", opt.trace ? 1.0 : 0.0);
  json.Key("hardware").Open('{');
  json.Field("nproc", static_cast<double>(std::thread::hardware_concurrency()));
  json.Field("pool_threads", static_cast<double>(pool_threads));
  json.Field("cpu_model", CpuModel());
  json.Field("state_fs", FsType(opt.work_dir));
  json.Field("build_type", std::string(SESSIONBENCH_BUILD_TYPE));
  json.Close('}');
  WriteArray(&json, "setup_s", setups);
  json.Field("peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0);
  json.Key("sessions").Open('[');
  for (const auto& s : done) WriteSession(&json, s);
  json.Close(']');
  json.Key("layers").Open('{');
  for (const auto& [name, value] : layers) json.Field(name, value);
  json.Close('}');
  json.Close('}');
  std::printf("%s\n", json.str().c_str());
  return 0;
}
