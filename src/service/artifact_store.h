/**
 * @file
 * Content-addressed on-disk store of compiled models, so warm starts
 * survive process restarts (DESIGN.md section 14).
 *
 * Every artifact is one file, `<dir>/<32-hex-key>.gcd2art`:
 *
 *   magic "GCD2ART\1" | format version u32 | ModelKey (h0,h1,nodes)
 *   | payload byte count u64 | FNV-1a-64 payload checksum | payload
 *
 * The payload is the serialized CompiledModel: selection + selector
 * telemetry, aggregate statistics, per-node cycles, the served-selection
 * provenance, and the served schedules (distinct PackedPrograms stored
 * once, schedules referencing them by index -- mirroring how the
 * PackCache shares programs across nodes in memory).
 *
 * Integrity gate on load, in order:
 *  1. header: magic/version match, key echo matches the request key;
 *  2. checksum: the FNV-1a digest of the payload bytes matches;
 *  3. bounds-checked parse (a truncated or overrunning payload rejects,
 *     never crashes);
 *  4. shape: planIndex / nodeCycles sized to the request graph and
 *     schedule node ids in range;
 *  5. re-audit: every distinct served program is run back through the
 *     schedule check table (structure, packet legality, delay claims)
 *     -- the same Cheap-audit gate a fresh compile passes -- before the
 *     artifact may be served.
 *
 * Any failed stage rejects the artifact (structured Diag explaining
 * why); the compile service then falls back to a clean compile and
 * overwrites the bad file. Writes go to a temp file renamed into place,
 * so a crashed writer never leaves a half-artifact under the key.
 *
 * Serialization helpers are exposed so tests can craft artifacts that
 * pass the checksum but fail the re-audit (proving the audit gate is
 * load-bearing, not just the checksum).
 */
#ifndef GCD2_SERVICE_ARTIFACT_STORE_H
#define GCD2_SERVICE_ARTIFACT_STORE_H

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/diag.h"
#include "runtime/compiler.h"
#include "service/fingerprint.h"

namespace gcd2 {
class ThreadPool;
}

namespace gcd2::service {

/** Serialize the servable parts of a compiled model (see file doc). */
std::vector<uint8_t> serializeModel(const runtime::CompiledModel &model);

/**
 * Parse a payload produced by serializeModel. Returns nullptr (with a
 * Diag appended) on any malformed/truncated input; never throws on bad
 * bytes and never reads out of bounds.
 */
std::shared_ptr<runtime::CompiledModel>
deserializeModel(const std::vector<uint8_t> &payload,
                 std::vector<common::Diag> *diags);

/**
 * Write a complete artifact file (header + checksum + payload) for
 * @p key at @p path. Exposed for tests; production code uses
 * ArtifactStore::save. Returns false on I/O failure.
 */
bool writeArtifactFile(const std::string &path, const ModelKey &key,
                       const std::vector<uint8_t> &payload);

class ArtifactStore
{
  public:
    /**
     * @param dir artifact directory (created if absent).
     * @param maxBytes size bound on the directory's artifact bytes;
     *        0 = unbounded. When bounded, every save triggers gc(),
     *        which evicts least-recently-used artifacts (by file mtime;
     *        load hits touch the file, so mtime is a recency clock)
     *        until the store fits. Eviction only ever deletes whole
     *        verified-format files; an evicted key simply falls back to
     *        a clean compile next time.
     */
    explicit ArtifactStore(std::string dir, uint64_t maxBytes = 0);

    const std::string &dir() const { return dir_; }
    uint64_t maxBytes() const { return maxBytes_; }

    /**
     * Enforce the size bound now: scan the directory's `*.gcd2art`
     * files and delete oldest-mtime-first until their total size is
     * within maxBytes. Returns the number of artifacts evicted (0 when
     * unbounded or already within bound). Safe to run concurrently with
     * save/load: a file that disappears mid-scan is skipped, a reader
     * of an evicted key sees an ordinary miss.
     */
    size_t gc(std::vector<common::Diag> *diags = nullptr);

    /** File path an artifact for @p key lives at. */
    std::string pathFor(const ModelKey &key) const;

    /**
     * Persist @p model under @p key (temp file + rename). Returns false
     * and appends a Diag on I/O failure; never throws.
     */
    bool save(const ModelKey &key, const runtime::CompiledModel &model,
              std::vector<common::Diag> *diags = nullptr);

    /**
     * Load, verify, and return the artifact for @p key, or nullptr when
     * absent or rejected by the integrity gate (stages in the file doc;
     * reasons appended to @p diags). @p graph is the request graph the
     * artifact must shape-match. The loaded model's report carries one
     * "artifact-load" pass with verification counters.
     *
     * @p pool, when non-null and wider than one worker, runs the
     * re-audit + re-lint of distinct programs concurrently (they are
     * independent pure checks); findings and the accept/reject verdict
     * are bit-identical to the serial path. The compile service passes
     * its verify pool here so a warm start is not serialized behind
     * auditing each served kernel one by one.
     */
    std::shared_ptr<runtime::CompiledModel>
    load(const ModelKey &key, const graph::Graph &graph,
         std::vector<common::Diag> *diags = nullptr,
         ThreadPool *pool = nullptr);

    struct Stats
    {
        uint64_t saves = 0;
        uint64_t saveBytes = 0;
        uint64_t loadHits = 0;    ///< artifacts served after verification
        uint64_t loadMisses = 0;  ///< no artifact on disk for the key
        uint64_t loadRejects = 0; ///< artifacts rejected by the gate
        uint64_t evictions = 0;   ///< artifacts deleted by gc()
        uint64_t evictedBytes = 0;
    };

    Stats stats() const;

  private:
    std::string dir_;
    uint64_t maxBytes_ = 0;    ///< 0 = unbounded (gc() never evicts)
    mutable std::mutex mutex_; ///< guards stats_ only (I/O is lock-free)
    Stats stats_;
};

} // namespace gcd2::service

#endif // GCD2_SERVICE_ARTIFACT_STORE_H
