// End-to-end benchmark driver for actuaryd (see perfbench/README.md).
//
//   perfbench_driver --workload paper_warm|explore_cold|scenario_cold
//                    --seed N --seconds S --trace 0|1
//                    --cli <actuary_cli> --root <repository root>
//
// Ordinary run: spawns the real `actuary_cli serve` on loopback, sets it
// up (spawn, listener, priming or discarded warm-ups) several times and
// keeps the last server, then drives a closed loop of pre-encoded,
// seed-generated request frames from one thread over at most two
// connections.  Every answer is checked; a seeded sample is recomputed
// in-process with explore::run_study and compared byte for byte (each
// result's "meta" removed), and paper_warm variant 0 is diffed against
// the committed golden at tolerance 0.
//
// Traced run (--trace 1): after the ordinary run, the same seeded
// requests are replayed in-process through the public functions the
// server calls, with a span around each call, once untraced and once
// traced.  Spans go to a Chrome trace-event file; layer self times,
// probes outside the request trees, and metrics-verb counter deltas of
// the ordinary run make the per-layer metrics.
//
// The last stdout line is one JSON object: {"correct", "attempted",
// "failed", "metrics"}.  Exit 0 only when every answer was correct.

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/actuary.h"
#include "explore/cell_store.h"
#include "explore/study.h"
#include "explore/study_cache.h"
#include "explore/study_graph.h"
#include "explore/study_json.h"
#include "serve/protocol.h"
#include "util/json.h"
#include "util/thread_pool.h"
#include "wafer/die_cost_cache.h"

namespace {

using namespace chiplet;
using Clock = std::chrono::steady_clock;

double ms_between(Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double, std::milli>(b - a).count();
}

[[noreturn]] void fail(const std::string& what) {
    throw std::runtime_error(what);
}

// ---- workloads ---------------------------------------------------------------

// Requests per second of --seconds.  The timed phase sends a fixed
// count, seconds x rate, so a faster or slower build runs the same
// requests and fills the caches equally (a duration-bound run would let
// a faster change fill them further and read as an RSS regression).
// Rates are this benchmark's constants, measured once on a 4-vCPU
// x86-64 VM.
struct WorkloadShape {
    const char* name;
    unsigned connections;
    double nominal_rps;
    unsigned warmups;  ///< discarded warm-up requests per setup (cold only)
};

constexpr std::array<WorkloadShape, 3> kShapes{{
    {"paper_warm", 2, 600.0, 0},
    {"explore_cold", 1, 38.0, 24},
    {"scenario_cold", 1, 68.0, 48},
}};

constexpr unsigned kWarmVariants = 64;   ///< paper_warm working set
constexpr unsigned kSetups = 5;          ///< setups per run; median reported
constexpr unsigned kSampleChecks = 6;    ///< timed requests recomputed
constexpr unsigned kMcDraws = 1024;

/// splitmix64: fixed, portable sequence per seed.
class Rng {
public:
    explicit Rng(std::uint64_t seed) : state_(seed) {}
    std::uint64_t next() {
        std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
        z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
        return z ^ (z >> 31);
    }
    double uniform() {  // [0, 1)
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }
    std::size_t below(std::size_t n) {
        return static_cast<std::size_t>(next() % n);
    }

private:
    std::uint64_t state_;
};

/// A seeded per-node defect-density override for the three nodes the
/// paper studies use: each density is the built-in one scaled by a draw
/// in [0.75, 1.25), rounded to 1e-6 so the frame text is exact.
JsonValue seeded_tech(Rng& rng) {
    static const std::array<std::pair<const char*, double>, 3> kBase{
        {{"14nm", 0.08}, {"7nm", 0.09}, {"5nm", 0.11}}};
    JsonValue nodes = JsonValue::array();
    for (const auto& [name, base] : kBase) {
        const double d =
            std::round(base * (0.75 + 0.5 * rng.uniform()) * 1e6) / 1e6;
        JsonValue node = JsonValue::object();
        node.set("name", name);
        node.set("defect_density_cm2", d);
        nodes.push_back(std::move(node));
    }
    JsonValue tech = JsonValue::object();
    tech.set("nodes", std::move(nodes));
    return tech;
}

/// A copy sharing no object with `v`: copies of a JsonValue object share
/// one representation, so set() on a plain copy would edit the original.
JsonValue deep_copy(const JsonValue& v) {
    if (v.is_array()) {
        JsonValue out = JsonValue::array();
        for (const JsonValue& e : v.as_array()) out.push_back(deep_copy(e));
        return out;
    }
    if (!v.is_object()) return v;
    JsonValue out = JsonValue::object();
    for (const std::string& key : v.keys()) out.set(key, deep_copy(v.at(key)));
    return out;
}

/// Returns `study` carrying `tech` (null = no override); node entries
/// the study already overrides keep the study's own values.
JsonValue with_tech(const JsonValue& study, const JsonValue& tech) {
    if (tech.is_null()) return study;
    JsonValue out = deep_copy(study);
    if (!study.contains("tech")) {
        out.set("tech", tech);
        return out;
    }
    const JsonValue& own = study.at("tech");
    std::set<std::string> named;
    JsonValue nodes = JsonValue::array();
    if (own.contains("nodes")) {
        for (const JsonValue& n : own.at("nodes").as_array()) {
            named.insert(n.at("name").as_string());
            nodes.push_back(n);
        }
    }
    for (const JsonValue& n : tech.at("nodes").as_array()) {
        if (!named.count(n.at("name").as_string())) nodes.push_back(n);
    }
    JsonValue merged = deep_copy(own);
    merged.set("nodes", std::move(nodes));
    out.set("tech", std::move(merged));
    return out;
}

std::string frame_of(JsonArray studies) {
    JsonValue doc = JsonValue::object();
    doc.set("studies", JsonValue(std::move(studies)));
    return doc.dump();
}

struct Workload {
    const WorkloadShape* shape = nullptr;
    std::vector<std::string> prime;   ///< paper_warm: one frame per variant
    std::vector<std::string> warmup;  ///< cold: discarded per setup
    std::vector<std::string> timed;   ///< the measured requests, in order
    std::vector<int> timed_variant;   ///< paper_warm variant, else -1
};

class WorkloadBuilder {
public:
    explicit WorkloadBuilder(const JsonValue& paper) : paper_(paper) {}

    /// The first paper study of `kind`, with `tech` applied.
    [[nodiscard]] JsonValue paper_study(const std::string& kind,
                                        const JsonValue& tech) const {
        for (const JsonValue& s : paper_.as_array()) {
            if (s.at("kind").as_string() == kind) return with_tech(s, tech);
        }
        fail("paper batch has no " + kind + " study");
    }

    [[nodiscard]] std::string paper_variant(const JsonValue& tech) const {
        JsonArray studies;
        for (const JsonValue& s : paper_.as_array()) {
            studies.push_back(with_tech(s, tech));
        }
        return frame_of(std::move(studies));
    }

    /// design_space over {5,7,14}nm x 1-8 chiplets x 4 packagings at
    /// 2000 mm^2 (29,523 candidates), the fig4 re_sweep grid, the fig6
    /// quantity_sweep and recommend, sharing one fresh override.
    [[nodiscard]] std::string explore_request(Rng& rng) const {
        const JsonValue tech = seeded_tech(rng);
        JsonValue ds = JsonValue::object();
        ds.set("name", "design_space_2000mm2");
        ds.set("kind", "design_space");
        ds.set("tech", tech);
        JsonValue config = JsonValue::object();
        config.set("module_area_mm2", 2000);
        config.set("reference_node", "5nm");
        config.set("nodes", JsonValue(JsonArray{"5nm", "7nm", "14nm"}));
        JsonArray counts;
        for (int k = 1; k <= 8; ++k) counts.push_back(k);
        config.set("chiplet_counts", JsonValue(std::move(counts)));
        config.set("packagings",
                   JsonValue(JsonArray{"SoC", "MCM", "InFO", "2.5D"}));
        config.set("top_k", 10);
        config.set("prune", true);
        ds.set("config", std::move(config));
        JsonArray studies{std::move(ds), paper_study("re_sweep", tech),
                          paper_study("quantity_sweep", tech),
                          paper_study("recommend", tech)};
        return frame_of(std::move(studies));
    }

    /// The paper batch's opaque kinds under one fresh override, with a
    /// seeded 1024-draw Monte-Carlo.
    [[nodiscard]] std::string scenario_request(Rng& rng) const {
        const JsonValue tech = seeded_tech(rng);
        JsonArray studies;
        for (const JsonValue& s : paper_.as_array()) {
            const std::string& kind = s.at("kind").as_string();
            if (kind != "breakeven" && kind != "sensitivity" &&
                kind != "tornado" && kind != "timeline" &&
                kind != "pareto" && kind != "monte_carlo") {
                continue;
            }
            JsonValue study = with_tech(s, tech);
            if (kind == "monte_carlo") {
                JsonValue config = study.at("config");
                config.set("draws", kMcDraws);
                config.set("seed",
                           static_cast<double>(rng.next() & 0xFFFFFFFFull));
                study.set("config", std::move(config));
            }
            studies.push_back(std::move(study));
        }
        return frame_of(std::move(studies));
    }

private:
    const JsonValue& paper_;
};

Workload make_workload(const WorkloadShape& shape, const JsonValue& paper,
                       std::uint64_t seed, std::size_t timed_count) {
    Workload w;
    w.shape = &shape;
    const WorkloadBuilder builder(paper);
    Rng rng(seed * 0x100000001B3ull + 0x5eed);
    const std::string name = shape.name;
    if (name == "paper_warm") {
        w.prime.push_back(builder.paper_variant(JsonValue()));
        for (unsigned v = 1; v < kWarmVariants; ++v) {
            w.prime.push_back(builder.paper_variant(seeded_tech(rng)));
        }
        for (std::size_t i = 0; i < timed_count; ++i) {
            const int v = static_cast<int>(rng.below(kWarmVariants));
            w.timed.push_back(w.prime[static_cast<std::size_t>(v)]);
            w.timed_variant.push_back(v);
        }
        return w;
    }
    const auto request = [&] {
        return name == "explore_cold" ? builder.explore_request(rng)
                                      : builder.scenario_request(rng);
    };
    for (unsigned i = 0; i < shape.warmups; ++i) w.warmup.push_back(request());
    for (std::size_t i = 0; i < timed_count; ++i) {
        w.timed.push_back(request());
        w.timed_variant.push_back(-1);
    }
    return w;
}

// ---- server process and connections ------------------------------------------

/// One actuaryd child.  The destructor kills and reaps it when it was not
/// shut down cleanly, so no path leaves a server behind.
class ServerProcess {
public:
    ServerProcess(const std::string& cli, unsigned threads) {
        int pipefd[2];
        if (::pipe2(pipefd, O_CLOEXEC) != 0) fail("pipe failed");
        const std::string threads_text = std::to_string(threads);
        pid_ = ::fork();
        if (pid_ < 0) fail("fork failed");
        if (pid_ == 0) {
            ::prctl(PR_SET_PDEATHSIG, SIGKILL);
            ::dup2(pipefd[1], STDOUT_FILENO);
            const char* argv[] = {cli.c_str(), "--threads",
                                  threads_text.c_str(), "serve", "--port",
                                  "0", nullptr};
            ::execv(cli.c_str(), const_cast<char* const*>(argv));
            ::_exit(127);
        }
        ::close(pipefd[1]);
        out_fd_ = pipefd[0];
        // "actuaryd: serving on 127.0.0.1:<port> ..." comes first.
        std::string line;
        char c = 0;
        while (::read(out_fd_, &c, 1) == 1 && c != '\n') line += c;
        const auto colon = line.find("127.0.0.1:");
        if (colon == std::string::npos) {
            // The destructor does not run for a constructor that throws.
            ::kill(pid_, SIGKILL);
            reap();
            ::close(out_fd_);
            fail("actuaryd did not start: " + line);
        }
        port_ = static_cast<unsigned short>(
            std::strtoul(line.c_str() + colon + 10, nullptr, 10));
    }
    ~ServerProcess() {
        if (pid_ > 0) {
            ::kill(pid_, SIGKILL);
            reap();
        }
        if (out_fd_ >= 0) ::close(out_fd_);
    }
    ServerProcess(const ServerProcess&) = delete;
    ServerProcess& operator=(const ServerProcess&) = delete;

    [[nodiscard]] unsigned short port() const { return port_; }

    /// Waits for the child after a shutdown request; true on exit 0.
    bool reap() {
        // Drain its remaining banner lines so it never blocks on stdout.
        char buf[4096];
        while (::read(out_fd_, buf, sizeof buf) > 0) {
        }
        int status = 0;
        while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
        }
        pid_ = -1;
        return WIFEXITED(status) && WEXITSTATUS(status) == 0;
    }

    /// utime + stime in milliseconds, from /proc/<pid>/stat.
    [[nodiscard]] double cpu_ms() const {
        std::ifstream in("/proc/" + std::to_string(pid_) + "/stat");
        std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
        const auto close_paren = text.rfind(')');
        if (close_paren == std::string::npos) fail("cannot read server stat");
        std::istringstream fields(text.substr(close_paren + 2));
        std::string field;
        double ticks = 0.0;
        // Fields after the command: state is #3; utime #14, stime #15.
        for (int i = 3; i <= 15 && (fields >> field); ++i) {
            if (i == 14 || i == 15) ticks += std::stod(field);
        }
        return ticks * 1000.0 / static_cast<double>(::sysconf(_SC_CLK_TCK));
    }

    /// VmHWM in MiB.
    [[nodiscard]] double peak_rss_mb() const {
        std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
        std::string line;
        while (std::getline(in, line)) {
            if (line.rfind("VmHWM:", 0) == 0) {
                return std::stod(line.substr(6)) / 1024.0;
            }
        }
        fail("cannot read server VmHWM");
    }

private:
    pid_t pid_ = -1;
    int out_fd_ = -1;
    unsigned short port_ = 0;
};

class Connection {
public:
    explicit Connection(unsigned short port) {
        fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
        if (fd_ < 0) fail("socket failed");
        const int one = 1;
        ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_port = htons(port);
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof addr) != 0) {
            fail("connect failed: " + std::string(std::strerror(errno)));
        }
    }
    ~Connection() {
        if (fd_ >= 0) ::close(fd_);
    }
    Connection(const Connection&) = delete;
    Connection& operator=(const Connection&) = delete;

    [[nodiscard]] int fd() const { return fd_; }

    /// `frame` already ends with the delimiter.
    void send(const std::string& frame) {
        std::size_t sent = 0;
        while (sent < frame.size()) {
            const ssize_t n = ::send(fd_, frame.data() + sent,
                                     frame.size() - sent, MSG_NOSIGNAL);
            if (n < 0 && errno == EINTR) continue;
            if (n <= 0) fail("send failed");
            sent += static_cast<std::size_t>(n);
        }
    }

    /// One recv into the buffer; true once a whole line is in `line`.
    bool read_some(std::string& line) {
        char buf[1 << 16];
        const ssize_t n = ::recv(fd_, buf, sizeof buf, 0);
        if (n < 0 && errno == EINTR) return false;
        if (n <= 0) fail("server closed the connection");
        const std::size_t scan_from = in_.size();
        in_.append(buf, static_cast<std::size_t>(n));
        const auto nl = in_.find('\n', scan_from);
        if (nl == std::string::npos) return false;
        line.assign(in_, 0, nl);
        in_.erase(0, nl + 1);
        return true;
    }

    std::string round_trip(const std::string& frame) {
        send(frame);
        std::string line;
        while (!read_some(line)) {
        }
        return line;
    }

private:
    int fd_ = -1;
    std::string in_;
};

/// Checks one run answer without parsing it: a results array, an empty
/// failures list, and the request's meta.wall_ms.
bool answer_ok(const std::string& answer, double& wall_ms) {
    if (answer.rfind("{\"results\":[", 0) != 0) return false;
    const auto failures = answer.rfind("\"failures\":");
    if (failures == std::string::npos ||
        answer.compare(failures + 11, 2, "[]") != 0) {
        return false;
    }
    const auto wall = answer.rfind("\"wall_ms\":");
    if (wall == std::string::npos || wall < failures) return false;
    wall_ms = std::strtod(answer.c_str() + wall + 10, nullptr);
    return true;
}

struct LoopResult {
    std::vector<double> latency_ms;  ///< completed requests, send order
    std::vector<double> wait_ms;     ///< latency minus meta.wall_ms
    std::size_t failed = 0;          ///< answers with an error or failures
    std::map<std::size_t, std::string> kept;  ///< answers asked for
    double elapsed_s = 0.0;
    double response_bytes = 0.0;
};

/// Closed loop: each connection keeps one request in flight; frames go
/// out in order on whichever connection frees first.
LoopResult closed_loop(std::vector<Connection*>& conns,
                       const std::vector<std::string>& frames,
                       const std::set<std::size_t>& keep) {
    LoopResult r;
    r.latency_ms.assign(frames.size(), 0.0);
    r.wait_ms.assign(frames.size(), 0.0);
    struct Slot {
        std::size_t index = 0;
        Clock::time_point sent;
        bool busy = false;
    };
    std::vector<Slot> slots(conns.size());
    std::vector<pollfd> fds(conns.size());
    std::size_t next = 0;
    std::size_t done = 0;
    const auto start = Clock::now();
    const auto issue = [&](std::size_t c) {
        slots[c] = Slot{next, Clock::now(), true};
        conns[c]->send(frames[next]);
        ++next;
    };
    for (std::size_t c = 0; c < conns.size() && next < frames.size(); ++c) {
        issue(c);
    }
    std::string line;
    while (done < frames.size()) {
        for (std::size_t c = 0; c < conns.size(); ++c) {
            fds[c] = pollfd{conns[c]->fd(), static_cast<short>(
                                                slots[c].busy ? POLLIN : 0),
                            0};
        }
        const int ready = ::poll(fds.data(), fds.size(), 60000);
        if (ready < 0 && errno == EINTR) continue;
        if (ready <= 0) fail("no answer from actuaryd within 60 s");
        for (std::size_t c = 0; c < conns.size(); ++c) {
            if (!(fds[c].revents & (POLLIN | POLLHUP | POLLERR))) continue;
            if (!conns[c]->read_some(line)) continue;
            const auto now = Clock::now();
            const Slot slot = slots[c];
            slots[c].busy = false;
            const double latency = ms_between(slot.sent, now);
            double wall = 0.0;
            if (!answer_ok(line, wall)) ++r.failed;
            r.latency_ms[slot.index] = latency;
            r.wait_ms[slot.index] = latency - wall;
            r.response_bytes += static_cast<double>(line.size());
            if (keep.count(slot.index)) r.kept[slot.index] = line;
            ++done;
            if (next < frames.size()) issue(c);
        }
    }
    r.elapsed_s = std::chrono::duration<double>(Clock::now() - start).count();
    return r;
}

// ---- statistics ----------------------------------------------------------------

double percentile(std::vector<double> v, double p) {
    std::sort(v.begin(), v.end());
    if (v.empty()) return 0.0;
    const double rank = p / 100.0 * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(rank));
    const auto hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (rank - static_cast<double>(lo));
}

/// Highest of these percentiles with at least ten samples beyond it.
double tail_percentile(std::size_t samples) {
    double best = 50.0;
    for (const double p : {90.0, 95.0, 99.0, 99.5, 99.9}) {
        if (static_cast<double>(samples) * (1.0 - p / 100.0) >= 10.0) best = p;
    }
    return best;
}

double median(std::vector<double> v) { return percentile(std::move(v), 50.0); }

constexpr std::size_t kTailWindow = 500;  ///< requests per tail window

/// The tail of a run: its requests split, in send order, into windows of
/// about kTailWindow; each window's tail_percentile (p95 at this size);
/// the median of those.  On a shared VM, p99 and beyond of paper_warm's
/// ~3.5 ms requests track hypervisor preemption bursts, not the program:
/// over whole 20 s runs they spread 0.2-0.35 run to run, against ~0.11
/// for this statistic (and ~0.10 for the p50).
struct Tail {
    double ms = 0.0;
    double percentile = 0.0;
    std::size_t windows = 0;
};

Tail windowed_tail(const std::vector<double>& latency) {
    Tail t;
    t.windows = std::max<std::size_t>(1, latency.size() / kTailWindow);
    std::vector<double> tails;
    for (std::size_t i = 0; i < t.windows; ++i) {
        const std::vector<double> window(
            latency.begin() + static_cast<std::ptrdiff_t>(
                                  i * latency.size() / t.windows),
            latency.begin() + static_cast<std::ptrdiff_t>(
                                  (i + 1) * latency.size() / t.windows));
        t.percentile = tail_percentile(window.size());
        tails.push_back(percentile(window, t.percentile));
    }
    t.ms = median(tails);
    return t;
}

double mean(const std::vector<double>& v) {
    double s = 0.0;
    for (const double x : v) s += x;
    return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}

// ---- metrics verb --------------------------------------------------------------

struct Counters {
    double cache_hits = 0, cache_misses = 0, cache_evictions = 0,
           cache_bytes = 0;
    double cell_hits = 0, cell_misses = 0, cell_evictions = 0, cell_bytes = 0;
    double cell_refs = 0, unique_cells = 0, deduped_cells = 0;
    double requests = 0, errors = 0;
};

Counters read_counters(Connection& conn) {
    const std::string answer = conn.round_trip(
        serve::encode_verb_request(serve::Verb::metrics) + "\n");
    const JsonValue m = JsonValue::parse(answer);
    Counters c;
    const JsonValue& cache = m.at("cache");
    c.cache_hits = cache.at("hits").as_number();
    c.cache_misses = cache.at("misses").as_number();
    c.cache_evictions = cache.at("evictions").as_number();
    c.cache_bytes = cache.at("bytes").as_number();
    const JsonValue& cells = m.at("cells");
    c.cell_hits = cells.at("hits").as_number();
    c.cell_misses = cells.at("misses").as_number();
    c.cell_evictions = cells.at("evictions").as_number();
    c.cell_bytes = cells.at("bytes").as_number();
    const JsonValue& graph = m.at("graph");
    c.cell_refs = graph.at("cell_refs").as_number();
    c.unique_cells = graph.at("unique_cells").as_number();
    c.deduped_cells = graph.at("deduped_cells").as_number();
    c.requests = m.at("server").at("requests").as_number();
    c.errors = m.at("server").at("errors").as_number();
    return c;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// ---- correctness -----------------------------------------------------------------

/// `doc` with its top-level "meta" key removed.
JsonValue without_meta(const JsonValue& doc) {
    JsonValue out = JsonValue::object();
    for (const std::string& key : doc.keys()) {
        if (key != "meta") out.set(key, doc.at(key));
    }
    return out;
}

/// Recomputes every study of `frame` with run_study and compares each
/// served result, meta removed, byte for byte.  Returns "" or the first
/// mismatch.
std::string verify_answer(const core::ChipletActuary& actuary,
                          const std::string& frame,
                          const std::string& answer) {
    const serve::Request request = serve::parse_request(frame);
    const JsonValue served = JsonValue::parse(answer);
    const JsonArray& results = served.at("results").as_array();
    if (results.size() != request.studies.size()) {
        return "served " + std::to_string(results.size()) + " results for " +
               std::to_string(request.studies.size()) + " studies";
    }
    for (std::size_t i = 0; i < results.size(); ++i) {
        const std::string expect =
            without_meta(explore::to_json(explore::run_study(
                             actuary, request.studies[i])))
                .dump();
        if (without_meta(results[i]).dump() != expect) {
            return "study '" + request.studies[i].name +
                   "' differs from a direct run_study";
        }
    }
    return "";
}

std::string verify_golden(const std::string& answer, const JsonValue& golden) {
    JsonValue doc = JsonValue::object();
    doc.set("results", JsonValue::parse(answer).at("results"));
    JsonDiffOptions options;
    options.tolerance = 0.0;
    options.ignore_keys = {"meta"};
    return json_diff(golden, doc, options);
}

// ---- ordinary run ------------------------------------------------------------------

struct Setup {
    std::unique_ptr<ServerProcess> server;
    std::vector<std::unique_ptr<Connection>> conns;
    double seconds = 0.0;
    std::string prime_v0;  ///< paper_warm: the cold answer for variant 0
    std::size_t failed = 0;
};

/// Spawn, wait for the listener, connect, then prime (paper_warm: every
/// variant, cold) or send the discarded warm-ups, on the workload's
/// connections.
Setup set_up(const Workload& w, const std::string& cli, unsigned threads) {
    Setup s;
    const auto start = Clock::now();
    s.server = std::make_unique<ServerProcess>(cli, threads);
    std::vector<Connection*> raw;
    for (unsigned c = 0; c < w.shape->connections; ++c) {
        s.conns.push_back(std::make_unique<Connection>(s.server->port()));
        raw.push_back(s.conns.back().get());
    }
    std::vector<std::string> frames;
    for (const auto& f : w.prime.empty() ? w.warmup : w.prime) {
        frames.push_back(f + "\n");
    }
    std::set<std::size_t> keep;
    if (!w.prime.empty()) keep.insert(0);
    LoopResult r = closed_loop(raw, frames, keep);
    s.seconds = std::chrono::duration<double>(Clock::now() - start).count();
    s.failed = r.failed;
    if (!w.prime.empty()) s.prime_v0 = r.kept[0];
    return s;
}

bool shut_down(Setup& s) {
    s.conns.front()->send(serve::encode_verb_request(serve::Verb::shutdown) +
                          "\n");
    std::string ack;
    while (!s.conns.front()->read_some(ack)) {
    }
    s.conns.clear();
    return s.server->reap();
}

struct Metric {
    std::string name;
    double value;
    std::string unit;
};

struct RunOutcome {
    bool correct = true;
    std::size_t attempted = 0;
    std::size_t failed = 0;
    std::vector<Metric> end_to_end;
    std::vector<Metric> layer;  ///< counters of the timed phase
    std::vector<std::string> problems;
};

RunOutcome ordinary_run(const Workload& w, const std::string& cli,
                        unsigned threads, const core::ChipletActuary& actuary,
                        const JsonValue& golden, std::uint64_t seed) {
    RunOutcome out;
    std::vector<double> setup_s;
    Setup s;
    for (unsigned i = 0; i < kSetups; ++i) {
        s = set_up(w, cli, threads);
        setup_s.push_back(s.seconds);
        if (s.failed) out.problems.push_back("a set-up request failed");
        if (i + 1 < kSetups && !shut_down(s)) {
            out.problems.push_back("actuaryd did not exit cleanly");
        }
    }

    std::vector<std::string> frames;
    for (const auto& f : w.timed) frames.push_back(f + "\n");
    Rng sample_rng(seed ^ 0xC0FFEEull);
    std::set<std::size_t> keep;
    while (keep.size() < std::min<std::size_t>(kSampleChecks, frames.size())) {
        keep.insert(sample_rng.below(frames.size()));
    }
    for (std::size_t i = 0; i < w.timed_variant.size(); ++i) {
        if (w.timed_variant[i] == 0) {
            keep.insert(i);  // the first warm variant-0 answer, for the golden
            break;
        }
    }

    std::vector<Connection*> raw;
    for (auto& c : s.conns) raw.push_back(c.get());
    const Counters before = read_counters(*raw.front());
    const double cpu_before = s.server->cpu_ms();
    LoopResult r = closed_loop(raw, frames, keep);
    const double cpu_after = s.server->cpu_ms();
    const double rss = s.server->peak_rss_mb();
    const Counters after = read_counters(*raw.front());
    if (!shut_down(s)) out.problems.push_back("actuaryd did not exit cleanly");

    // closed_loop returns only once every request has its answer.
    const auto n = static_cast<double>(frames.size());
    out.attempted = frames.size();
    out.failed = r.failed;
    const Tail tail = windowed_tail(r.latency_ms);
    std::cout << "timed phase: " << frames.size() << " requests on "
              << w.shape->connections << " connection(s), actuaryd --threads "
              << threads << "; " << r.latency_ms.size()
              << " samples; tail = median over " << tail.windows
              << " window(s) of each window's p" << tail.percentile << "\n";
    out.end_to_end = {
        {"setup_s", median(setup_s), "s"},
        {"throughput_rps", n / r.elapsed_s, "1/s"},
        {"latency_p50_ms", median(r.latency_ms), "ms"},
        {"latency_tail_ms", tail.ms, "ms"},
        {"success_share", (n - static_cast<double>(r.failed)) / n,
         "share"},
        {"cpu_ms_per_request", (cpu_after - cpu_before) / n, "ms"},
        {"peak_rss_mb", rss, "MB"},
    };
    const double reqs = after.requests - before.requests;
    out.layer = {
        {"serve.wait_ms", mean(r.wait_ms), "ms"},
        {"serve.response_kb", r.response_bytes / n / 1024.0, "KB"},
        {"study_cache.hit_rate",
         ratio(after.cache_hits - before.cache_hits,
               after.cache_hits - before.cache_hits + after.cache_misses -
                   before.cache_misses),
         "share"},
        {"study_cache.evictions", after.cache_evictions - before.cache_evictions,
         "count"},
        {"study_cache.mb", after.cache_bytes / 1048576.0, "MB"},
        {"study_graph.unique_cells",
         ratio(after.unique_cells - before.unique_cells, reqs), "cells/req"},
        {"study_graph.dedup_ratio",
         ratio(after.deduped_cells - before.deduped_cells,
               after.cell_refs - before.cell_refs),
         "share"},
        {"cell_store.hit_rate",
         ratio(after.cell_hits - before.cell_hits,
               after.cell_hits - before.cell_hits + after.cell_misses -
                   before.cell_misses),
         "share"},
        {"cell_store.evictions", after.cell_evictions - before.cell_evictions,
         "count"},
        {"cell_store.mb", after.cell_bytes / 1048576.0, "MB"},
    };
    if (reqs != n || after.errors != before.errors) {
        out.problems.push_back("metrics verb counted " +
                               std::to_string(reqs) + " answered requests of " +
                               std::to_string(frames.size()));
    }

    // Correctness: recompute the sample, golden-diff variant 0.
    for (const auto& [index, answer] : r.kept) {
        const std::string why = verify_answer(actuary, w.timed[index], answer);
        if (!why.empty()) {
            out.problems.push_back("request " + std::to_string(index) + ": " +
                                   why);
        }
        if (w.timed_variant[index] == 0) {
            const std::string diff = verify_golden(answer, golden);
            if (!diff.empty()) {
                out.problems.push_back("warm variant 0 vs golden: " + diff);
            }
        }
    }
    if (!w.prime.empty()) {
        const std::string diff = verify_golden(s.prime_v0, golden);
        if (!diff.empty()) {
            out.problems.push_back("cold variant 0 vs golden: " + diff);
        }
    }
    std::cout << "checked: " << r.kept.size()
              << " answers recomputed with run_study"
              << (w.prime.empty() ? "" : ", variant 0 diffed against the golden")
              << "\n";
    out.correct = out.problems.empty() && out.failed == 0;
    return out;
}

// ---- traced replay -------------------------------------------------------------

struct Span {
    const char* name;
    Clock::time_point start;
    Clock::time_point end;
    int parent;  ///< index into the span list, -1 for a root
    std::size_t request;
    bool setup;  ///< a priming or warm-up request, not a timed one
};

/// Spans kept in memory; written out once at the end.
class Tracer {
public:
    explicit Tracer(bool on) : on_(on) {
        if (on_) spans_.reserve(1 << 16);
    }
    /// Marks the spans opened from now on as set-up (true) or timed.
    void set_setup(bool setup) { setup_ = setup; }
    int open(const char* name, int parent, std::size_t request) {
        if (!on_) return -1;
        spans_.push_back(Span{name, Clock::now(), {}, parent, request, setup_});
        return static_cast<int>(spans_.size() - 1);
    }
    void close(int id) {
        if (on_) spans_[static_cast<std::size_t>(id)].end = Clock::now();
    }
    template <typename F>
    decltype(auto) span(const char* name, int parent, std::size_t request,
                        F&& body) {
        struct Closer {
            Tracer& t;
            int id;
            ~Closer() { t.close(id); }
        } closer{*this, open(name, parent, request)};
        return body();
    }
    [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

private:
    bool on_;
    bool setup_ = false;
    std::vector<Span> spans_;
};

/// The server's state for one replay: the study cache and cell store,
/// sized as actuaryd sizes them from its default 64 MB.
struct Session {
    static constexpr std::size_t kCacheBytes = 64ull << 20;
    explore::StudyCache cache{explore::StudyCache::Config{
        kCacheBytes - kCacheBytes / 4, 8, 64}};
    explore::CellStore store{explore::CellStore::Config{kCacheBytes / 4, 8}};
};

/// One request down the server's path, built from public functions:
/// parse_request, StudyCache::lookup, run_study_graph on the misses,
/// StudyCache::insert, to_json, encode_run_response.
std::string serve_request(const core::ChipletActuary& actuary,
                          Session& session, const std::string& frame,
                          Tracer& tracer, std::size_t id) {
    const auto start = Clock::now();
    const int root = tracer.open("request", -1, id);
    serve::Request request = tracer.span("serve.parse", root, id, [&] {
        return serve::parse_request(frame);
    });
    const std::size_t n = request.studies.size();
    std::vector<std::optional<explore::StudyResult>> results(n);
    std::vector<explore::StudySpec> misses;
    std::vector<std::size_t> miss_at;
    for (std::size_t i = 0; i < n; ++i) {
        results[i] = tracer.span("study_cache.lookup", root, id, [&] {
            return session.cache.lookup(request.studies[i]);
        });
        if (!results[i]) {
            misses.push_back(request.studies[i]);
            miss_at.push_back(i);
        }
    }
    std::vector<explore::StudyFailure> failures;
    if (!misses.empty()) {
        explore::StudyGraphRun run =
            tracer.span("study_graph.run", root, id, [&] {
                return explore::run_study_graph(actuary, misses, nullptr,
                                                &session.store);
            });
        for (std::size_t k = 0; k < misses.size(); ++k) {
            if (!run.results[k]) {
                failures.push_back(explore::StudyFailure{
                    miss_at[k], misses[k].name, "model", "study failed"});
                continue;
            }
            tracer.span("study_cache.insert", root, id, [&] {
                session.cache.insert(misses[k], *run.results[k]);
            });
            results[miss_at[k]] = std::move(run.results[k]);
        }
    }
    JsonArray docs;
    for (auto& r : results) {
        if (!r) continue;
        docs.push_back(tracer.span("study_json.to_json", root, id,
                                   [&] { return explore::to_json(*r); }));
    }
    serve::RunMeta meta;
    meta.cache = session.cache.stats();
    meta.threads = util::ThreadPool::global().size();
    meta.wall_ms = ms_between(start, Clock::now());
    std::string answer = tracer.span("serve.encode", root, id, [&] {
        return serve::encode_run_response(docs, failures, meta);
    });
    tracer.close(root);
    if (!failures.empty()) fail("replayed request failed");
    return answer;
}

struct Replay {
    double seconds = 0.0;
    double die_cost_hits = 0.0;  ///< DieCostCache::global() deltas
    double die_cost_misses = 0.0;
};

/// Primes a fresh session like the ordinary run's set-up, then replays
/// the first `count` timed requests.
Replay replay(const core::ChipletActuary& actuary, const Workload& w,
              std::size_t count, Tracer& tracer) {
    Session session;
    const auto& setup = w.prime.empty() ? w.warmup : w.prime;
    tracer.set_setup(true);
    for (std::size_t i = 0; i < setup.size(); ++i) {
        (void)serve_request(actuary, session, setup[i], tracer, i);
    }
    tracer.set_setup(false);
    const auto before = wafer::DieCostCache::global().stats();
    const auto start = Clock::now();
    for (std::size_t i = 0; i < count; ++i) {
        (void)serve_request(actuary, session, w.timed[i], tracer, i);
    }
    Replay r;
    r.seconds = std::chrono::duration<double>(Clock::now() - start).count();
    const auto after = wafer::DieCostCache::global().stats();
    r.die_cost_hits = static_cast<double>(after.hits - before.hits);
    r.die_cost_misses = static_cast<double>(after.misses - before.misses);
    return r;
}

void write_chrome_trace(const std::vector<Span>& spans,
                        const std::string& path) {
    std::filesystem::create_directories(
        std::filesystem::path(path).parent_path());
    std::ofstream out(path);
    if (!out) fail("cannot write " + path);
    const Clock::time_point t0 = spans.empty() ? Clock::now() : spans[0].start;
    out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span& s = spans[i];
        const double ts =
            std::chrono::duration<double, std::micro>(s.start - t0).count();
        const double dur =
            std::chrono::duration<double, std::micro>(s.end - s.start).count();
        out << (i ? ",\n" : "\n") << "{\"name\":\"" << s.name
            << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << (s.setup ? 2 : 1)
            << ",\"ts\":" << ts
            << ",\"dur\":" << dur << ",\"args\":{\"request\":" << s.request
            << ",\"span\":" << i << ",\"parent\":" << s.parent
            << ",\"setup\":" << (s.setup ? "true" : "false") << "}}";
    }
    out << "\n]}\n";
}

std::vector<Metric> traced_run(const core::ChipletActuary& actuary,
                               const Workload& w, const JsonValue& paper,
                               const std::string& trace_path) {
    // An eighth of the timed requests: enough spans for steady means,
    // while both replays stay well inside the run's time limit.
    const std::size_t count = std::min(
        w.timed.size(), std::max<std::size_t>(8, (w.timed.size() + 7) / 8));
    // The first replay only warms the process (heap growth, page faults)
    // so that neither measured replay pays for it.
    Tracer quiet(false);
    Tracer traced(true);
    (void)replay(actuary, w, count, quiet);
    const Replay traced_run = replay(actuary, w, count, traced);
    const Replay plain_run = replay(actuary, w, count, quiet);
    write_chrome_trace(traced.spans(), trace_path);
    std::cout << "trace: " << traced.spans().size() << " spans of " << count
              << " requests -> " << trace_path << "\n";

    // Self time per span name, summed over the replay, then per request.
    const auto& spans = traced.spans();
    std::vector<double> self(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i) {
        self[i] = ms_between(spans[i].start, spans[i].end);
    }
    for (std::size_t i = 0; i < spans.size(); ++i) {
        if (spans[i].parent >= 0) {
            self[static_cast<std::size_t>(spans[i].parent)] -=
                ms_between(spans[i].start, spans[i].end);
        }
    }
    // A layer the timed requests never call (paper_warm's graph and
    // insert: every timed study hits) is averaged over the traced set-up
    // requests instead, so it reads the layer's cost where it runs.
    std::map<std::string, double> timed_ms;
    std::map<std::string, double> setup_ms;
    double request_ms = 0.0;
    double setup_requests = 0.0;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        (spans[i].setup ? setup_ms : timed_ms)[spans[i].name] += self[i];
        if (spans[i].parent >= 0) continue;
        if (spans[i].setup) {
            setup_requests += 1.0;
        } else {
            request_ms += ms_between(spans[i].start, spans[i].end);
        }
    }
    const auto per_request = [&](const char* name) {
        if (timed_ms.count(name)) {
            return timed_ms[name] / static_cast<double>(count);
        }
        return setup_ms.count(name) ? setup_ms[name] / setup_requests : 0.0;
    };

    // Probes outside the request trees, on the first requests.
    const std::size_t probes = std::min<std::size_t>(count, 16);
    std::vector<double> compile_ms;
    std::vector<double> dump_ms;
    std::map<std::string, std::vector<double>> engine_ms;
    std::vector<double> candidates;
    std::vector<double> evaluated;
    static const char* kKinds[] = {"re_sweep",  "quantity_sweep", "monte_carlo",
                                   "sensitivity", "tornado",      "breakeven",
                                   "pareto",    "recommend",      "timeline",
                                   "design_space"};
    const WorkloadBuilder builder(paper);
    for (std::size_t i = 0; i < probes; ++i) {
        serve::Request request = serve::parse_request(w.timed[i]);
        std::vector<explore::StudySpec> specs = request.studies;
        // Kinds this workload does not carry are probed on the paper
        // study of that kind under the request's own override, so every
        // engine metric exists on every workload.
        std::set<std::string> present;
        for (const auto& spec : specs) present.insert(to_string(spec.kind()));
        for (const char* kind : kKinds) {
            if (present.count(kind)) continue;
            specs.push_back(explore::study_spec_from_json(
                builder.paper_study(kind, specs.front().tech_overrides)));
        }
        const auto t0 = Clock::now();
        const explore::StudyPlan plan =
            explore::plan_studies(actuary, request.studies);
        compile_ms.push_back(ms_between(t0, Clock::now()));
        if (plan.studies.size() != request.studies.size()) {
            fail("plan_studies lost a study");
        }
        JsonArray docs;
        for (const auto& spec : specs) {
            const auto t1 = Clock::now();
            const explore::StudyResult result = explore::run_study(actuary, spec);
            engine_ms[to_string(spec.kind())].push_back(
                ms_between(t1, Clock::now()));
            if (docs.size() < request.studies.size()) {
                docs.push_back(explore::to_json(result));
            }
            if (const auto* ds =
                    std::get_if<explore::DesignSpaceResult>(&result.payload)) {
                candidates.push_back(static_cast<double>(ds->total_candidates));
                evaluated.push_back(static_cast<double>(ds->evaluated));
            }
        }
        // The dump inside encode_run_response, alone, over the request's
        // own result documents.
        const JsonValue array(std::move(docs));
        const auto t2 = Clock::now();
        const std::string text = array.dump();
        dump_ms.push_back(ms_between(t2, Clock::now()));
        if (text.empty()) fail("empty result dump");
    }

    std::vector<Metric> m = {
        {"trace.request_ms", request_ms / static_cast<double>(count), "ms"},
        {"serve.parse_ms", per_request("serve.parse"), "ms"},
        {"serve.encode_ms", per_request("serve.encode"), "ms"},
        {"study_json.to_json_ms", per_request("study_json.to_json"), "ms"},
        {"json.dump_ms", mean(dump_ms), "ms"},
        {"study_cache.lookup_ms", per_request("study_cache.lookup"), "ms"},
        {"study_cache.insert_ms", per_request("study_cache.insert"), "ms"},
        {"study_graph.run_ms", per_request("study_graph.run"), "ms"},
        {"study_graph.compile_ms", mean(compile_ms), "ms"},
        {"trace.request_self_ms", per_request("request"), "ms"},
    };
    for (const char* kind : kKinds) {
        m.push_back({std::string("engine.") + kind + "_ms",
                     mean(engine_ms[kind]), "ms"});
    }
    m.push_back({"design_space.candidates", mean(candidates), "count"});
    m.push_back({"design_space.evaluated", mean(evaluated), "count"});
    m.push_back({"die_cost_cache.hit_rate",
                 ratio(traced_run.die_cost_hits,
                       traced_run.die_cost_hits + traced_run.die_cost_misses),
                 "share"});
    m.push_back({"trace.overhead_share",
                 traced_run.seconds / plain_run.seconds - 1.0, "share"});
    return m;
}

// ---- main ----------------------------------------------------------------------

std::string number_text(double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
    return buf;
}

void print_result(const RunOutcome& out, const std::vector<Metric>& metrics) {
    for (const Metric& m : metrics) {
        std::cout << "  " << m.name << " = " << number_text(m.value) << " "
                  << m.unit << "\n";
    }
    for (const std::string& p : out.problems) {
        std::cout << "INCORRECT: " << p << "\n";
    }
    std::cout << "{\"correct\":" << (out.correct ? "true" : "false")
              << ",\"attempted\":" << out.attempted
              << ",\"failed\":" << out.failed << ",\"metrics\":{";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        std::cout << (i ? "," : "") << "\"" << metrics[i].name
                  << "\":{\"value\":" << number_text(metrics[i].value)
                  << ",\"unit\":\"" << metrics[i].unit << "\"}";
    }
    std::cout << "}}" << std::endl;
}

int usage() {
    std::cerr << "usage: perfbench_driver --workload W --seed N --seconds S "
                 "--trace 0|1 --cli <actuary_cli> --root <repo root>\n";
    return 2;
}

}  // namespace

int main(int argc, char** argv) {
    std::map<std::string, std::string> args;
    for (int i = 1; i + 1 < argc; i += 2) {
        if (std::strncmp(argv[i], "--", 2) != 0) return usage();
        args[argv[i] + 2] = argv[i + 1];
    }
    for (const char* key : {"workload", "seed", "seconds", "trace", "cli", "root"}) {
        if (!args.count(key)) return usage();
    }
    const WorkloadShape* shape = nullptr;
    for (const auto& s : kShapes) {
        if (args["workload"] == s.name) shape = &s;
    }
    if (!shape) return usage();
    try {
        const std::uint64_t seed = std::stoull(args["seed"]);
        const double seconds = std::stod(args["seconds"]);
        const bool trace = args["trace"] == "1";
        const std::string root = args["root"];
        const JsonValue paper = JsonValue::load_file(
            root + "/examples/studies/paper_figures.json").at("studies");
        const JsonValue golden = JsonValue::load_file(
            root + "/examples/studies/paper_figures.golden.json");
        const auto timed = static_cast<std::size_t>(
            std::max(1.0, std::round(seconds * shape->nominal_rps)));
        const Workload w = make_workload(*shape, paper, seed, timed);

        // actuaryd gets every core but the client's.
        const unsigned cores = std::thread::hardware_concurrency();
        const unsigned threads = cores > 1 ? cores - 1 : 1;
        util::ThreadPool::set_global_threads(threads);
        const core::ChipletActuary actuary;

        RunOutcome out =
            ordinary_run(w, args["cli"], threads, actuary, golden, seed);
        if (!trace) {
            print_result(out, out.end_to_end);
        } else {
            std::vector<Metric> layer = out.layer;
            const std::string path = root + "/.bench_build/traces/" +
                                     shape->name + "-seed" +
                                     std::to_string(seed) + ".trace.json";
            for (Metric& m : traced_run(actuary, w, paper, path)) {
                layer.push_back(std::move(m));
            }
            print_result(out, layer);
        }
        return out.correct ? 0 : 1;
    } catch (const std::exception& e) {
        std::cerr << "perfbench_driver: " << e.what() << "\n";
        return 1;
    }
}
