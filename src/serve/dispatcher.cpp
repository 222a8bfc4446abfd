#include "serve/dispatcher.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <optional>
#include <thread>
#include <utility>
#include <variant>

#include "explore/design_space.h"
#include "explore/study_json.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "tech/json_io.h"
#include "util/error.h"
#include "util/json.h"

namespace chiplet::serve {

namespace {

struct Shard {
    WorkerAddress worker;
    std::uint64_t begin = 0;
    std::uint64_t end = 0;
};

/// One merged ranking entry: the ordering keys parsed out of a worker
/// payload plus the worker's serialised forms, passed through verbatim
/// so the merge never re-rounds a number the worker already printed.
struct MergeEntry {
    double total = 0.0;
    double index = 0.0;
    JsonValue best;  ///< the worker's "best" entry, byte-exact
    JsonValue row;   ///< the aligned table row; only rank is rewritten
};

std::string trimmed(const std::string& s) {
    const std::size_t first = s.find_first_not_of(" \t");
    if (first == std::string::npos) return "";
    const std::size_t last = s.find_last_not_of(" \t");
    return s.substr(first, last - first + 1);
}

/// Runs one shard against its worker and returns the single result
/// envelope from the response.  Throws Error describing what the worker
/// did wrong (refused, died mid-study, reported a failure, answered
/// with the wrong shape).
JsonValue call_worker(const Shard& shard, const std::string& request,
                      unsigned timeout_seconds) {
    StudyClient client(shard.worker.host, shard.worker.port, timeout_seconds);
    const JsonValue response = client.call(request);
    if (response.contains("error")) {
        const JsonValue& error = response.at("error");
        throw Error("worker " + shard.worker.label() + " answered with " +
                    error.at("code").as_string() + ": " +
                    error.at("message").as_string());
    }
    const JsonArray& failures = response.at("failures").as_array();
    if (!failures.empty()) {
        throw Error("worker " + shard.worker.label() + " failed its shard (" +
                    failures.front().at("stage").as_string() + "): " +
                    failures.front().at("message").as_string());
    }
    const JsonArray& results = response.at("results").as_array();
    if (results.size() != 1) {
        throw Error("worker " + shard.worker.label() + " returned " +
                    std::to_string(results.size()) +
                    " results for a 1-study shard");
    }
    return results.front();
}

}  // namespace

std::vector<WorkerAddress> parse_worker_list(const std::string& text) {
    std::vector<WorkerAddress> workers;
    std::size_t pos = 0;
    while (pos <= text.size()) {
        const std::size_t comma = text.find(',', pos);
        const std::string entry = trimmed(
            text.substr(pos, comma == std::string::npos ? std::string::npos
                                                        : comma - pos));
        pos = comma == std::string::npos ? text.size() + 1 : comma + 1;
        if (entry.empty()) {
            if (comma == std::string::npos && workers.empty() &&
                trimmed(text).empty()) {
                break;
            }
            throw ParseError("dispatch: empty worker entry in '" + text + "'");
        }
        WorkerAddress w;
        const std::size_t colon = entry.rfind(':');
        std::string port_text = entry;
        if (colon != std::string::npos) {
            const std::string host = trimmed(entry.substr(0, colon));
            if (!host.empty()) w.host = host;
            port_text = trimmed(entry.substr(colon + 1));
        }
        double parsed = 0.0;
        if (!parse_full_number(port_text, parsed) || parsed < 1 ||
            parsed > 65535 || parsed != static_cast<unsigned>(parsed)) {
            throw ParseError("dispatch: bad worker port '" + entry +
                             "' (expected host:port with port 1..65535)");
        }
        w.port = static_cast<unsigned short>(parsed);
        workers.push_back(std::move(w));
    }
    if (workers.empty()) {
        throw ParseError("dispatch: worker list is empty");
    }
    return workers;
}

bool Dispatcher::can_shard(const explore::StudySpec& spec) {
    return spec.kind() == explore::StudyKind::design_space && !spec.explain;
}

JsonValue Dispatcher::run_sharded(const core::ChipletActuary& actuary,
                                  const explore::StudySpec& spec) const {
    CHIPLET_EXPECTS(can_shard(spec),
                    "dispatch: only non-explain design_space studies shard");
    const auto start = std::chrono::steady_clock::now();
    const auto& config = std::get<explore::DesignSpaceConfig>(spec.config);

    // Size the space exactly as the workers will: against the spec's
    // overridden library when one is attached.
    std::optional<core::ChipletActuary> patched;
    const core::ChipletActuary* sizing = &actuary;
    if (!spec.tech_overrides.is_null()) {
        tech::TechLibrary lib = actuary.library();
        tech::apply_overrides(lib, spec.tech_overrides,
                              "study '" + spec.name + "': tech");
        patched.emplace(std::move(lib), actuary.assumptions());
        sizing = &*patched;
    }
    const std::uint64_t space = explore::design_space_size(*sizing, config);
    const std::uint64_t begin = config.index_begin;
    const std::uint64_t end = config.index_end == 0 ? space : config.index_end;
    CHIPLET_EXPECTS(end <= space, "design space index_end is outside the space");
    CHIPLET_EXPECTS(begin <= end, "design space index_begin exceeds index_end");
    const std::uint64_t span = end - begin;

    // Contiguous, near-equal windows; a span smaller than the fleet
    // simply leaves trailing workers without a shard.
    std::vector<Shard> shards;
    const std::uint64_t fleet = config_.workers.size();
    const std::uint64_t per = fleet > 0 ? span / fleet : 0;
    const std::uint64_t extra = fleet > 0 ? span % fleet : 0;
    std::uint64_t cursor = begin;
    for (std::uint64_t i = 0; i < fleet; ++i) {
        const std::uint64_t len = per + (i < extra ? 1 : 0);
        if (len == 0) continue;
        shards.push_back(Shard{config_.workers[i], cursor, cursor + len});
        cursor += len;
    }
    if (shards.empty()) {
        // Empty window: nothing to farm out, and the local evaluation is
        // trivially bit-identical.
        return explore::to_json(explore::run_study(actuary, spec));
    }

    // One request per shard: the spec itself with the window narrowed.
    std::vector<std::string> requests;
    requests.reserve(shards.size());
    for (std::size_t i = 0; i < shards.size(); ++i) {
        JsonValue sub = explore::to_json(spec);
        sub.at("config").set("index_begin",
                             static_cast<double>(shards[i].begin));
        sub.at("config").set("index_end", static_cast<double>(shards[i].end));
        JsonValue studies = JsonValue::array();
        studies.push_back(std::move(sub));
        JsonValue request = JsonValue::object();
        request.set("v", kProtocolVersion);
        request.set("id", static_cast<double>(i));
        request.set("verb", "run");
        request.set("studies", std::move(studies));
        requests.push_back(request.dump());
    }

    // All shards in flight at once — these threads spend their lives
    // blocked on worker sockets, so a thread apiece beats occupying the
    // evaluation pool.
    std::vector<JsonValue> docs(shards.size());
    std::vector<std::string> errors(shards.size());
    std::vector<std::thread> threads;
    threads.reserve(shards.size());
    for (std::size_t i = 0; i < shards.size(); ++i) {
        threads.emplace_back([&, i] {
            try {
                docs[i] = call_worker(shards[i], requests[i],
                                      config_.timeout_seconds);
            } catch (const std::exception& e) {
                errors[i] = "dispatch: shard [" +
                            std::to_string(shards[i].begin) + ", " +
                            std::to_string(shards[i].end) + ") of study '" +
                            spec.name + "': " + e.what();
            }
        });
    }
    for (std::thread& t : threads) t.join();
    for (const std::string& error : errors) {
        if (!error.empty()) throw Error(error);
    }

    // Merge.  Keys are parsed only to order entries; the serialised
    // forms travel untouched.
    std::vector<MergeEntry> entries;
    std::uint64_t total_candidates = 0;
    std::uint64_t pruned = 0;
    std::uint64_t evaluated = 0;
    for (std::size_t i = 0; i < docs.size(); ++i) {
        const JsonValue& result = docs[i].at("result");
        total_candidates +=
            static_cast<std::uint64_t>(result.at("total_candidates").as_number());
        pruned += static_cast<std::uint64_t>(result.at("pruned").as_number());
        evaluated +=
            static_cast<std::uint64_t>(result.at("evaluated").as_number());
        const JsonArray& best = result.at("best").as_array();
        const JsonArray& rows =
            docs[i].at("table").at("rows").as_array();
        if (best.size() != rows.size()) {
            throw Error("dispatch: worker " + shards[i].worker.label() +
                        " returned a table misaligned with its ranking");
        }
        // Windowed runs publish lossless "order_keys" alongside the
        // 12-digit payload numbers; ordering on the exact doubles is
        // what makes the merged ranking reproduce the single-process
        // comparator even for candidates whose totals round to the same
        // printed text.
        const JsonArray* keys = nullptr;
        if (result.contains("order_keys")) {
            keys = &result.at("order_keys").as_array();
            if (keys->size() != best.size()) {
                throw Error("dispatch: worker " + shards[i].worker.label() +
                            " returned order_keys misaligned with its ranking");
            }
        }
        for (std::size_t j = 0; j < best.size(); ++j) {
            MergeEntry entry;
            entry.total = best[j].at("total_per_unit").as_number();
            if (keys != nullptr &&
                !parse_full_number((*keys)[j].as_string(), entry.total)) {
                throw Error("dispatch: worker " + shards[i].worker.label() +
                            " returned an unparsable order key");
            }
            entry.index = best[j].at("index").as_number();
            entry.best = best[j];
            entry.row = rows[j];
            entries.push_back(std::move(entry));
        }
    }
    // Same strict weak order as DesignSpace::cheaper(); indices are
    // globally unique, so the order is total and the sort deterministic.
    std::sort(entries.begin(), entries.end(),
              [](const MergeEntry& a, const MergeEntry& b) {
                  return a.total != b.total ? a.total < b.total
                                            : a.index < b.index;
              });
    if (config.top_k > 0 && entries.size() > config.top_k) {
        entries.resize(config.top_k);
    }

    JsonValue best_out = JsonValue::array();
    JsonValue rows_out = JsonValue::array();
    for (std::size_t i = 0; i < entries.size(); ++i) {
        best_out.push_back(std::move(entries[i].best));
        JsonValue row = std::move(entries[i].row);
        // The rank cell is the row's position in the merged ranking —
        // the only cell whose value depends on which process ranked it.
        row.as_array()[0] = JsonValue(std::to_string(i + 1));
        rows_out.push_back(std::move(row));
    }

    JsonValue result_out = JsonValue::object();
    result_out.set("total_candidates", static_cast<double>(total_candidates));
    result_out.set("pruned", static_cast<double>(pruned));
    result_out.set("evaluated", static_cast<double>(evaluated));
    result_out.set("pruned_fraction",
                   total_candidates > 0
                       ? static_cast<double>(pruned) /
                             static_cast<double>(total_candidates)
                       : 0.0);
    result_out.set("best", std::move(best_out));
    // A spec that was itself windowed serialises order_keys when run in
    // one process, so the merged document carries them too; whole-space
    // specs must not gain the field.
    if (config.index_begin > 0 || config.index_end > 0) {
        JsonValue keys_out = JsonValue::array();
        for (const MergeEntry& entry : entries) {
            keys_out.push_back(exact_number_string(entry.total));
        }
        result_out.set("order_keys", std::move(keys_out));
    }

    JsonValue table_out = JsonValue::object();
    table_out.set("columns", docs.front().at("table").at("columns"));
    table_out.set("rows", std::move(rows_out));

    const double wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    JsonValue meta = JsonValue::object();
    meta.set("wall_seconds", wall_seconds);
    meta.set("threads", static_cast<unsigned>(shards.size()));
    meta.set("from_cache", false);
    meta.set("with_ledgers", false);

    JsonValue envelope = JsonValue::object();
    envelope.set("name", spec.name);
    envelope.set("kind", explore::to_string(explore::StudyKind::design_space));
    envelope.set("meta", std::move(meta));
    envelope.set("table", std::move(table_out));
    envelope.set("result", std::move(result_out));
    return envelope;
}

}  // namespace chiplet::serve
