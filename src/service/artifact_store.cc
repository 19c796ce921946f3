#include "service/artifact_store.h"

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <thread>

#include "analysis/schedule_check.h"

namespace gcd2::service {

namespace {

using common::Diag;
using common::DiagSeverity;
using runtime::CompiledModel;

/** Artifact file layout version; bump on any payload format change. */
constexpr uint32_t kFormatVersion = 2;
constexpr char kMagic[8] = {'G', 'C', 'D', '2', 'A', 'R', 'T', '\1'};

/** Sanity bound on any serialized element count: a valid payload never
 *  claims more elements than it has bytes left, so anything larger is
 *  corruption (and would otherwise be a multi-GB allocation). */
constexpr uint64_t kMaxCount = uint64_t{1} << 32;

/** FNV-1a over 8-byte words (byte-serial FNV is too slow for multi-MB
 *  payloads on every load); the tail is padded with the length, so
 *  truncation within the last word still changes the digest. */
uint64_t
fnv64(const uint8_t *data, size_t n)
{
    uint64_t h = 0xcbf29ce484222325ULL;
    size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        uint64_t word = 0;
        std::memcpy(&word, data + i, 8);
        h ^= word;
        h *= 0x100000001b3ULL;
    }
    uint64_t tail = n;
    for (int shift = 0; i < n; ++i, shift += 8)
        tail ^= static_cast<uint64_t>(data[i]) << (8 + shift);
    h ^= tail;
    h *= 0x100000001b3ULL;
    return h;
}

void
reject(std::vector<Diag> *diags, std::string message)
{
    if (diags == nullptr)
        return;
    Diag diag;
    diag.severity = DiagSeverity::Warning;
    diag.pass = "artifact-load";
    diag.message = std::move(message);
    diags->push_back(std::move(diag));
}

// Little-endian byte writer --------------------------------------------

class Writer
{
  public:
    std::vector<uint8_t> take() { return std::move(buf_); }

    void
    u8(uint8_t v)
    {
        buf_.push_back(v);
    }

    void
    u32(uint32_t v)
    {
        uint8_t le[4];
        for (int i = 0; i < 4; ++i)
            le[i] = static_cast<uint8_t>(v >> (8 * i));
        buf_.insert(buf_.end(), le, le + 4);
    }

    void
    u64(uint64_t v)
    {
        uint8_t le[8];
        for (int i = 0; i < 8; ++i)
            le[i] = static_cast<uint8_t>(v >> (8 * i));
        buf_.insert(buf_.end(), le, le + 8);
    }

    void i64(int64_t v) { u64(static_cast<uint64_t>(v)); }
    void f64(double v) { u64(std::bit_cast<uint64_t>(v)); }

    void
    sizeVec(const std::vector<size_t> &values)
    {
        u64(values.size());
        for (size_t v : values)
            u64(v);
    }

  private:
    std::vector<uint8_t> buf_;
};

/**
 * Bounds-checked little-endian reader. Every read checks the remaining
 * byte count first; past the first failure the reader sticks at !ok()
 * and returns zeros, so parse code can read straight through and check
 * once per structure.
 */
class Reader
{
  public:
    explicit Reader(const std::vector<uint8_t> &buf) : buf_(&buf) {}

    bool ok() const { return ok_; }
    bool atEnd() const { return ok_ && pos_ == buf_->size(); }
    size_t remaining() const { return buf_->size() - pos_; }

    uint8_t
    u8()
    {
        if (!need(1))
            return 0;
        return (*buf_)[pos_++];
    }

    uint32_t
    u32()
    {
        if (!need(4))
            return 0;
        const uint8_t *p = buf_->data() + pos_;
        pos_ += 4;
        uint32_t v = 0;
        for (int i = 0; i < 4; ++i)
            v |= static_cast<uint32_t>(p[i]) << (8 * i);
        return v;
    }

    uint64_t
    u64()
    {
        if (!need(8))
            return 0;
        const uint8_t *p = buf_->data() + pos_;
        pos_ += 8;
        uint64_t v = 0;
        for (int i = 0; i < 8; ++i)
            v |= static_cast<uint64_t>(p[i]) << (8 * i);
        return v;
    }

    int64_t i64() { return static_cast<int64_t>(u64()); }
    double f64() { return std::bit_cast<double>(u64()); }

    /**
     * Element count for a sequence of @p elemBytes-sized elements. Fails
     * the reader when the count could not possibly fit in the remaining
     * bytes, so corrupt counts never drive allocations.
     */
    size_t
    count(size_t elemBytes)
    {
        const uint64_t n = u64();
        if (!ok_)
            return 0;
        if (n > kMaxCount || n * elemBytes > remaining()) {
            ok_ = false;
            return 0;
        }
        return static_cast<size_t>(n);
    }

    std::vector<size_t>
    sizeVec()
    {
        std::vector<size_t> out(count(8));
        for (size_t &v : out)
            v = static_cast<size_t>(u64());
        return out;
    }

  private:
    bool
    need(size_t n)
    {
        if (!ok_ || remaining() < n)
            ok_ = false;
        return ok_;
    }

    const std::vector<uint8_t> *buf_;
    size_t pos_ = 0;
    bool ok_ = true;
};

// CompiledModel payload ------------------------------------------------

void
writeOperand(Writer &w, const dsp::Operand &op)
{
    w.u8(static_cast<uint8_t>(op.cls));
    w.u8(static_cast<uint8_t>(op.idx));
}

dsp::Operand
readOperand(Reader &r)
{
    dsp::Operand op;
    const uint8_t cls = r.u8();
    op.cls = cls <= static_cast<uint8_t>(dsp::RegClass::Vector)
                 ? static_cast<dsp::RegClass>(cls)
                 : dsp::RegClass::None;
    op.idx = static_cast<int8_t>(r.u8());
    return op;
}

void
writeProgram(Writer &w, const dsp::PackedProgram &packed)
{
    const dsp::Program &prog = packed.program;
    w.u64(prog.code.size());
    for (const dsp::Instruction &inst : prog.code) {
        w.u8(static_cast<uint8_t>(inst.op));
        writeOperand(w, inst.dst[0]);
        writeOperand(w, inst.src[0]);
        writeOperand(w, inst.src[1]);
        w.i64(inst.imm);
    }
    w.sizeVec(prog.labels);
    w.u64(prog.noaliasRegs.size());
    for (int8_t reg : prog.noaliasRegs)
        w.u8(static_cast<uint8_t>(reg));
    // Extents ride behind the regs they describe (format v2); a
    // well-formed program has them parallel, but serialize the actual
    // vector so hand-built programs round-trip exactly.
    w.u64(prog.noaliasExtents.size());
    for (int64_t extent : prog.noaliasExtents)
        w.i64(extent);

    w.u64(packed.packets.size());
    for (const dsp::Packet &packet : packed.packets)
        w.sizeVec(packet.insts);
    w.sizeVec(packed.labelPacket);
}

std::shared_ptr<const dsp::PackedProgram>
readProgram(Reader &r)
{
    auto packed = std::make_shared<dsp::PackedProgram>();
    dsp::Program &prog = packed->program;

    prog.code.resize(r.count(15)); // op + 3 operands + imm
    for (dsp::Instruction &inst : prog.code) {
        const uint8_t op = r.u8();
        if (op >= static_cast<uint8_t>(dsp::Opcode::kNumOpcodes)) {
            // An out-of-range opcode would make every later info() table
            // lookup undefined; treat it as a parse failure.
            return nullptr;
        }
        inst.op = static_cast<dsp::Opcode>(op);
        inst.dst[0] = readOperand(r);
        inst.src[0] = readOperand(r);
        inst.src[1] = readOperand(r);
        inst.imm = r.i64();
    }
    prog.labels = r.sizeVec();
    prog.noaliasRegs.resize(r.count(1));
    for (int8_t &reg : prog.noaliasRegs)
        reg = static_cast<int8_t>(r.u8());
    prog.noaliasExtents.resize(r.count(8));
    for (int64_t &extent : prog.noaliasExtents)
        extent = r.i64();

    packed->packets.resize(r.count(8));
    for (dsp::Packet &packet : packed->packets)
        packet.insts = r.sizeVec();
    packed->labelPacket = r.sizeVec();
    return r.ok() ? packed : nullptr;
}

void
writeStats(Writer &w, const select::NodeExecStats &s)
{
    w.u64(s.cycles);
    w.u64(s.instructions);
    w.u64(s.packets);
    w.u64(s.bytesLoaded);
    w.u64(s.bytesStored);
}

select::NodeExecStats
readStats(Reader &r)
{
    select::NodeExecStats s;
    s.cycles = r.u64();
    s.instructions = r.u64();
    s.packets = r.u64();
    s.bytesLoaded = r.u64();
    s.bytesStored = r.u64();
    return s;
}

void
writeSelection(Writer &w, const select::Selection &sel)
{
    w.u64(sel.planIndex.size());
    for (int p : sel.planIndex)
        w.i64(p);
    w.u64(sel.totalCost);
}

select::Selection
readSelection(Reader &r)
{
    select::Selection sel;
    sel.planIndex.resize(r.count(8));
    for (int &p : sel.planIndex)
        p = static_cast<int>(r.i64());
    sel.totalCost = r.u64();
    return sel;
}

} // namespace

std::vector<uint8_t>
serializeModel(const CompiledModel &model)
{
    Writer w;

    writeSelection(w, model.selection);
    writeSelection(w, model.selector.selection);
    // selector.seconds is deliberately NOT serialized: wall-clock search
    // time is telemetry of the compiling process, not model content, and
    // keeping it out makes serializeModel() a bit-stable function of the
    // compile *result* -- the property the coalescing and warm-start
    // tests compare on.
    w.u64(model.selector.evaluations);
    w.u8(model.selector.truncated ? 1 : 0);

    writeStats(w, model.totals);
    writeStats(w, model.transformOnly);
    w.i64(model.liveOperators);
    w.i64(model.totalMacs);
    w.i64(model.demandBytes);

    w.u64(model.nodeCycles.size());
    for (uint64_t c : model.nodeCycles)
        w.u64(c);

    // Provenance of the served selection (which ladder rung compiled it).
    w.u64(model.report.servedSelection.size());
    for (char c : model.report.servedSelection)
        w.u8(static_cast<uint8_t>(c));
    w.i64(model.report.selectionRung);

    // Distinct served programs once; schedules reference them by index
    // (the on-disk mirror of the PackCache sharing in memory).
    std::vector<const dsp::PackedProgram *> programs;
    std::vector<std::pair<graph::NodeId, uint64_t>> refs;
    for (const CompiledModel::ServedSchedule &sched : model.schedules) {
        size_t index = programs.size();
        for (size_t i = 0; i < programs.size(); ++i)
            if (programs[i] == sched.program.get()) {
                index = i;
                break;
            }
        if (index == programs.size())
            programs.push_back(sched.program.get());
        refs.emplace_back(sched.node, index);
    }
    w.u64(programs.size());
    for (const dsp::PackedProgram *prog : programs)
        writeProgram(w, *prog);
    w.u64(refs.size());
    for (const auto &[node, index] : refs) {
        w.u64(static_cast<uint64_t>(node));
        w.u64(index);
    }

    return w.take();
}

std::shared_ptr<CompiledModel>
deserializeModel(const std::vector<uint8_t> &payload,
                 std::vector<Diag> *diags)
{
    Reader r(payload);
    auto model = std::make_shared<CompiledModel>();

    model->selection = readSelection(r);
    model->selector.selection = readSelection(r);
    model->selector.seconds = 0.0; // not serialized (see serializeModel)
    model->selector.evaluations = r.u64();
    model->selector.truncated = r.u8() != 0;

    model->totals = readStats(r);
    model->transformOnly = readStats(r);
    model->liveOperators = r.i64();
    model->totalMacs = r.i64();
    model->demandBytes = r.i64();

    model->nodeCycles.resize(r.count(8));
    for (uint64_t &c : model->nodeCycles)
        c = r.u64();

    std::string servedSelection(r.count(1), '\0');
    for (char &c : servedSelection)
        c = static_cast<char>(r.u8());
    model->report.servedSelection = std::move(servedSelection);
    model->report.selectionRung = static_cast<int>(r.i64());

    std::vector<std::shared_ptr<const dsp::PackedProgram>> programs(
        r.count(1));
    for (auto &prog : programs) {
        prog = readProgram(r);
        if (prog == nullptr) {
            reject(diags, "artifact payload: malformed packed program");
            return nullptr;
        }
    }
    const size_t refCount = r.count(16);
    model->schedules.reserve(refCount);
    for (size_t i = 0; i < refCount; ++i) {
        CompiledModel::ServedSchedule sched;
        sched.node = static_cast<graph::NodeId>(r.u64());
        const uint64_t index = r.u64();
        if (r.ok() && index >= programs.size()) {
            reject(diags, "artifact payload: schedule references "
                          "program " +
                              std::to_string(index) + " of " +
                              std::to_string(programs.size()));
            return nullptr;
        }
        if (r.ok())
            sched.program = programs[static_cast<size_t>(index)];
        model->schedules.push_back(std::move(sched));
    }

    if (!r.ok() || !r.atEnd()) {
        reject(diags, "artifact payload: truncated or trailing bytes");
        return nullptr;
    }
    return model;
}

bool
writeArtifactFile(const std::string &path, const ModelKey &key,
                  const std::vector<uint8_t> &payload)
{
    Writer header;
    for (char c : kMagic)
        header.u8(static_cast<uint8_t>(c));
    header.u32(kFormatVersion);
    header.u64(key.h0);
    header.u64(key.h1);
    header.u64(key.nodes);
    header.u64(payload.size());
    header.u64(fnv64(payload.data(), payload.size()));
    const std::vector<uint8_t> head = header.take();

    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char *>(head.data()),
              static_cast<std::streamsize>(head.size()));
    out.write(reinterpret_cast<const char *>(payload.data()),
              static_cast<std::streamsize>(payload.size()));
    out.flush();
    return static_cast<bool>(out);
}

ArtifactStore::ArtifactStore(std::string dir, uint64_t maxBytes)
    : dir_(std::move(dir)), maxBytes_(maxBytes)
{
    std::error_code ec;
    std::filesystem::create_directories(dir_, ec);
    // A failure surfaces as save/load misses, never as a throw: the
    // service degrades to cold compiles when the store is unusable.
}

std::string
ArtifactStore::pathFor(const ModelKey &key) const
{
    return dir_ + "/" + toHex(key) + ".gcd2art";
}

bool
ArtifactStore::save(const ModelKey &key, const CompiledModel &model,
                    std::vector<Diag> *diags)
{
    const std::vector<uint8_t> payload = serializeModel(model);

    // Temp file + rename: concurrent writers of one key each write a
    // private temp file and the last rename wins atomically, so readers
    // never observe a half-written artifact.
    const std::string path = pathFor(key);
    const std::string tmp =
        path + ".tmp." +
        std::to_string(
            std::hash<std::thread::id>{}(std::this_thread::get_id()));
    if (!writeArtifactFile(tmp, key, payload)) {
        std::error_code ec;
        std::filesystem::remove(tmp, ec);
        reject(diags, "artifact store: failed to write " + tmp);
        return false;
    }
    std::error_code ec;
    std::filesystem::rename(tmp, path, ec);
    if (ec) {
        std::filesystem::remove(tmp, ec);
        reject(diags, "artifact store: failed to rename into " + path);
        return false;
    }

    {
        std::lock_guard<std::mutex> lock(mutex_);
        ++stats_.saves;
        stats_.saveBytes += payload.size();
    }
    if (maxBytes_ > 0)
        gc(diags);
    return true;
}

size_t
ArtifactStore::gc(std::vector<Diag> *diags)
{
    if (maxBytes_ == 0)
        return 0;

    namespace fs = std::filesystem;
    struct Entry
    {
        fs::file_time_type mtime;
        uint64_t bytes = 0;
        fs::path path;
    };
    std::vector<Entry> entries;
    uint64_t total = 0;
    std::error_code ec;
    for (fs::directory_iterator it(dir_, ec), end; !ec && it != end;
         it.increment(ec)) {
        if (it->path().extension() != ".gcd2art")
            continue;
        Entry entry;
        entry.path = it->path();
        entry.bytes = it->file_size(ec);
        if (ec) // disappeared mid-scan (concurrent gc or operator)
            continue;
        entry.mtime = it->last_write_time(ec);
        if (ec)
            continue;
        total += entry.bytes;
        entries.push_back(std::move(entry));
    }
    if (total <= maxBytes_)
        return 0;

    // Oldest mtime first. load() touches the file on every verified
    // hit, so mtime orders artifacts by last use, not creation.
    std::sort(entries.begin(), entries.end(),
              [](const Entry &a, const Entry &b) {
                  return a.mtime < b.mtime;
              });
    size_t evicted = 0;
    uint64_t evictedBytes = 0;
    for (const Entry &entry : entries) {
        if (total <= maxBytes_)
            break;
        if (!fs::remove(entry.path, ec) || ec) {
            reject(diags, "artifact gc: failed to remove " +
                              entry.path.string());
            continue;
        }
        total -= entry.bytes;
        evictedBytes += entry.bytes;
        ++evicted;
    }

    std::lock_guard<std::mutex> lock(mutex_);
    stats_.evictions += evicted;
    stats_.evictedBytes += evictedBytes;
    return evicted;
}

std::shared_ptr<CompiledModel>
ArtifactStore::load(const ModelKey &key, const graph::Graph &graph,
                    std::vector<Diag> *diags, ThreadPool *pool)
{
    const std::string path = pathFor(key);

    std::vector<uint8_t> bytes;
    {
        std::ifstream in(path, std::ios::binary | std::ios::ate);
        if (!in) {
            std::lock_guard<std::mutex> lock(mutex_);
            ++stats_.loadMisses;
            return nullptr;
        }
        const std::streamsize size = in.tellg();
        in.seekg(0);
        bytes.resize(static_cast<size_t>(size));
        in.read(reinterpret_cast<char *>(bytes.data()), size);
        if (!in) {
            reject(diags, "artifact store: short read of " + path);
            std::lock_guard<std::mutex> lock(mutex_);
            ++stats_.loadRejects;
            return nullptr;
        }
    }

    const auto rejected = [&](std::string message) {
        reject(diags, std::move(message));
        std::lock_guard<std::mutex> lock(mutex_);
        ++stats_.loadRejects;
        return nullptr;
    };

    // Gate 1: header.
    Reader r(bytes);
    for (char expect : kMagic)
        if (static_cast<char>(r.u8()) != expect || !r.ok())
            return rejected("artifact " + path + ": bad magic");
    if (const uint32_t version = r.u32(); version != kFormatVersion)
        return rejected("artifact " + path + ": format version " +
                        std::to_string(version) + ", expected " +
                        std::to_string(kFormatVersion));
    ModelKey echoed;
    echoed.h0 = r.u64();
    echoed.h1 = r.u64();
    echoed.nodes = r.u64();
    if (!r.ok() || !(echoed == key))
        return rejected("artifact " + path + ": key echo mismatch");

    // Gate 2: checksum over the exact payload byte range.
    const uint64_t payloadSize = r.u64();
    const uint64_t checksum = r.u64();
    if (!r.ok() || payloadSize != r.remaining())
        return rejected("artifact " + path + ": truncated payload");
    std::vector<uint8_t> payload(bytes.end() -
                                     static_cast<ptrdiff_t>(payloadSize),
                                 bytes.end());
    if (fnv64(payload.data(), payload.size()) != checksum)
        return rejected("artifact " + path + ": checksum mismatch");

    // Gate 3: bounds-checked parse.
    std::shared_ptr<CompiledModel> model =
        deserializeModel(payload, diags);
    if (model == nullptr) {
        std::lock_guard<std::mutex> lock(mutex_);
        ++stats_.loadRejects;
        return nullptr;
    }

    // Gate 4: shape against the request graph.
    if (model->selection.planIndex.size() != graph.size() ||
        model->nodeCycles.size() != graph.size())
        return rejected("artifact " + path +
                        ": model sized for a different graph");
    for (const CompiledModel::ServedSchedule &sched : model->schedules)
        if (static_cast<size_t>(sched.node) >= graph.size())
            return rejected("artifact " + path +
                            ": schedule for out-of-range node " +
                            std::to_string(sched.node));

    // Gate 5: the served-schedule gate at Cheap depth -- the same
    // structural + hazard check a fresh Cheap-audit compile passes. An
    // artifact that fails here parsed fine but would serve an illegal
    // schedule (the corruption the checksum cannot catch: a valid file
    // containing wrong bits).
    std::vector<const dsp::PackedProgram *> programs;
    for (const CompiledModel::ServedSchedule &sched : model->schedules) {
        if (sched.program == nullptr)
            return rejected("artifact " + path + ": null schedule");
        programs.push_back(sched.program.get());
    }
    analysis::ScheduleCheck check = analysis::checkSchedules(
        programs, analysis::LintDepth::Cheap, pool);
    if (diags != nullptr)
        diags->insert(diags->end(),
                      std::make_move_iterator(check.diags.begin()),
                      std::make_move_iterator(check.diags.end()));
    if (check.errors() > 0)
        return rejected("artifact " + path + ": re-audit found " +
                        std::to_string(check.errors()) +
                        " violations; refusing to serve");

    // The served report describes *this* load, not the original compile
    // (whose pass timings died with its process); provenance fields were
    // restored from the payload above.
    runtime::PassReport pass;
    pass.name = "artifact-load";
    pass.counters.emplace_back("payload-bytes", payload.size());
    pass.counters.emplace_back("programs-audited", check.programs);
    model->report.passes.push_back(std::move(pass));

    // Touch the file so gc()'s oldest-mtime-first eviction treats this
    // artifact as recently used (best-effort; a failure just ages it).
    std::error_code touchEc;
    std::filesystem::last_write_time(
        path, std::filesystem::file_time_type::clock::now(), touchEc);

    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.loadHits;
    return model;
}

ArtifactStore::Stats
ArtifactStore::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
}

} // namespace gcd2::service
