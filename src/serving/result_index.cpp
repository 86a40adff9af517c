#include "serving/result_index.hpp"

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "campaign/result_store.hpp"
#include "scenario/policy_registry.hpp"

namespace rcast::serving {

namespace {

constexpr char kMagic[8] = {'r', 'c', 'a', 's', 't', 'i', 'd', 'x'};
constexpr std::uint32_t kVersion = 1;
constexpr std::uint32_t kRecordSize = 80;
constexpr std::size_t kHeaderSize = 16;

void put_u32(unsigned char* p, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) p[i] = static_cast<unsigned char>(v >> (8 * i));
}

void put_u64(unsigned char* p, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) p[i] = static_cast<unsigned char>(v >> (8 * i));
}

void put_f64(unsigned char* p, double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  put_u64(p, bits);
}

std::uint32_t get_u32(const unsigned char* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
  return v;
}

std::uint64_t get_u64(const unsigned char* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  return v;
}

double get_f64(const unsigned char* p) {
  const std::uint64_t bits = get_u64(p);
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

}  // namespace

std::uint64_t digest_to_u64(std::string_view hex) {
  if (hex.size() != 16) throw IndexError("digest must be 16 hex digits");
  std::uint64_t v = 0;
  for (const char c : hex) {
    v <<= 4;
    if (c >= '0' && c <= '9') v |= static_cast<std::uint64_t>(c - '0');
    else if (c >= 'a' && c <= 'f') v |= static_cast<std::uint64_t>(c - 'a' + 10);
    else if (c >= 'A' && c <= 'F') v |= static_cast<std::uint64_t>(c - 'A' + 10);
    else throw IndexError("digest must be 16 hex digits");
  }
  return v;
}

void encode_entry(const IndexEntry& e, unsigned char out[80]) {
  std::memset(out, 0, kRecordSize);
  put_u64(out + 0, e.job);
  put_u64(out + 8, e.offset);
  put_u64(out + 16, e.cfg_digest);
  put_u64(out + 24, e.cell_digest);
  put_u32(out + 32, e.length);
  out[36] = e.scheme;
  out[37] = e.routing;
  out[38] = e.mobility;
  out[39] = e.traffic;
  put_u32(out + 40, e.nodes);
  put_u32(out + 44, e.flows);
  put_f64(out + 48, e.rate_pps);
  put_f64(out + 56, e.pause_s);
  put_f64(out + 64, e.duration_s);
  put_u64(out + 72, e.seed);
}

IndexEntry decode_entry(const unsigned char in[80]) {
  IndexEntry e;
  e.job = get_u64(in + 0);
  e.offset = get_u64(in + 8);
  e.cfg_digest = get_u64(in + 16);
  e.cell_digest = get_u64(in + 24);
  e.length = get_u32(in + 32);
  e.scheme = in[36];
  e.routing = in[37];
  e.mobility = in[38];
  e.traffic = in[39];
  e.nodes = get_u32(in + 40);
  e.flows = get_u32(in + 44);
  e.rate_pps = get_f64(in + 48);
  e.pause_s = get_f64(in + 56);
  e.duration_s = get_f64(in + 64);
  e.seed = get_u64(in + 72);
  return e;
}

IndexEntry index_entry(std::uint64_t job, std::uint64_t cfg_digest,
                       const scenario::ScenarioConfig& cfg,
                       std::uint64_t offset, std::uint32_t length) {
  IndexEntry e;
  e.job = job;
  e.offset = offset;
  e.cfg_digest = cfg_digest;
  e.cell_digest = digest_to_u64(campaign::config_cell_digest(cfg));
  e.length = length;
  e.scheme = static_cast<std::uint8_t>(cfg.scheme);
  e.routing = static_cast<std::uint8_t>(cfg.routing);
  e.mobility = static_cast<std::uint8_t>(
      scenario::mobility_models().index_of(cfg.mobility_model));
  e.traffic = static_cast<std::uint8_t>(
      scenario::traffic_patterns().index_of(cfg.traffic_pattern));
  e.nodes = static_cast<std::uint32_t>(cfg.num_nodes);
  e.flows = static_cast<std::uint32_t>(cfg.num_flows);
  e.rate_pps = cfg.rate_pps;
  e.pause_s = sim::to_seconds(cfg.pause);
  e.duration_s = sim::to_seconds(cfg.duration);
  e.seed = cfg.seed;
  return e;
}

ResultIndex ResultIndex::open(const std::string& jsonl_path) {
  ResultIndex idx;
  idx.jsonl_path_ = jsonl_path;
  idx.idx_path_ = sidecar_path(jsonl_path);

  // Try to adopt an existing sidecar. Any defect — bad magic, wrong
  // version/record size, or entries past the current JSONL size (the JSONL
  // was truncated or replaced) — falls back to a rebuild: the sidecar is
  // derived data, never authoritative.
  bool adopted = false;
  {
    std::ifstream in(idx.idx_path_, std::ios::binary);
    if (in) {
      unsigned char header[kHeaderSize];
      if (in.read(reinterpret_cast<char*>(header), kHeaderSize) &&
          std::memcmp(header, kMagic, sizeof(kMagic)) == 0 &&
          get_u32(header + 8) == kVersion &&
          get_u32(header + 12) == kRecordSize) {
        std::error_code ec;
        const auto jsonl_size =
            std::filesystem::file_size(jsonl_path, ec);
        const std::uint64_t limit = ec ? 0 : jsonl_size;
        adopted = true;
        unsigned char rec[kRecordSize];
        while (in.read(reinterpret_cast<char*>(rec), kRecordSize)) {
          const IndexEntry e = decode_entry(rec);
          // Offsets must be monotone and inside the JSONL (blank lines can
          // leave gaps); anything else is stale or corrupt — rebuild below.
          // Bounds-check without `offset + length` so a corrupt offset near
          // 2^64 cannot wrap past the limit.
          if (e.offset < idx.indexed_bytes_ || e.offset > limit ||
              std::uint64_t{e.length} + 1 > limit - e.offset) {
            adopted = false;
            break;
          }
          idx.entries_.push_back(e);
          idx.insert_maps(idx.entries_.size() - 1);
          idx.indexed_bytes_ = e.offset + e.length + 1;
        }
        // A torn trailing record (short read) is expected after a crash
        // and simply ignored; refresh() re-derives it from the JSONL.
      }
    }
  }

  if (!adopted) {
    idx.entries_.clear();
    idx.by_cfg_.clear();
    idx.by_cell_.clear();
    idx.indexed_bytes_ = 0;
    std::error_code ec;
    std::filesystem::remove(idx.idx_path_, ec);
    std::ofstream out(idx.idx_path_, std::ios::binary | std::ios::trunc);
    if (!out) throw IndexError("cannot create index " + idx.idx_path_);
    unsigned char header[kHeaderSize];
    std::memcpy(header, kMagic, sizeof(kMagic));
    put_u32(header + 8, kVersion);
    put_u32(header + 12, kRecordSize);
    out.write(reinterpret_cast<const char*>(header), kHeaderSize);
    if (!out) throw IndexError("cannot write index header " + idx.idx_path_);
  } else {
    // Drop any torn trailing record so appends start on a record boundary.
    std::error_code ec;
    const auto size = std::filesystem::file_size(idx.idx_path_, ec);
    if (!ec) {
      const std::uint64_t want =
          kHeaderSize + idx.entries_.size() * std::uint64_t{kRecordSize};
      if (size > want) std::filesystem::resize_file(idx.idx_path_, want, ec);
    }
  }

  idx.index_new_lines(/*write_sidecar=*/true);
  return idx;
}

ResultIndex ResultIndex::rebuild(const std::string& jsonl_path) {
  std::error_code ec;
  std::filesystem::remove(sidecar_path(jsonl_path), ec);
  return open(jsonl_path);
}

const IndexEntry* ResultIndex::find_cfg(std::uint64_t cfg_digest) const {
  const auto it = by_cfg_.find(cfg_digest);
  return it == by_cfg_.end() ? nullptr : &entries_[it->second];
}

std::vector<const IndexEntry*> ResultIndex::find_cell(
    std::uint64_t cell_digest) const {
  std::vector<const IndexEntry*> out;
  const auto it = by_cell_.find(cell_digest);
  if (it == by_cell_.end()) return out;
  out.reserve(it->second.size());
  for (const std::size_t i : it->second) out.push_back(&entries_[i]);
  return out;
}

std::size_t ResultIndex::refresh() {
  // Fast path first: adopt records from the mmapped sidecar. Then scan the
  // JSONL for any complete lines the sidecar does not cover — but once an
  // external sidecar writer is known, stop appending our own records (each
  // would duplicate the one the writer is about to append).
  std::size_t added = absorb_from_sidecar();
  added += index_new_lines(/*write_sidecar=*/!sidecar_external_);
  return added;
}

std::size_t ResultIndex::absorb_from_sidecar() {
  if (!sidecar_map_.valid() && !sidecar_map_.open(idx_path_)) return 0;
  const std::size_t size = sidecar_map_.refresh();
  if (size < kHeaderSize + kRecordSize) return 0;
  const unsigned char* base = sidecar_map_.data();
  if (std::memcmp(base, kMagic, sizeof(kMagic)) != 0 ||
      get_u32(base + 8) != kVersion || get_u32(base + 12) != kRecordSize) {
    // Replaced or foreign file behind our descriptor; the JSONL scan still
    // serves lookups, and the next open() repairs the sidecar.
    return 0;
  }
  // Sidecar records and our entries both mirror the JSONL's line sequence,
  // so record i corresponds to entries_[i]; anything past entries_.size()
  // was appended by an external writer. The torn trailing record (partial
  // write) falls out of the floor division and waits for the next refresh.
  const std::size_t records = (size - kHeaderSize) / kRecordSize;
  if (records <= entries_.size()) return 0;
  std::error_code ec;
  const auto jsonl_size = std::filesystem::file_size(jsonl_path_, ec);
  const std::uint64_t limit = ec ? 0 : jsonl_size;
  std::size_t added = 0;
  for (std::size_t i = entries_.size(); i < records; ++i) {
    const IndexEntry e = decode_entry(base + kHeaderSize + i * kRecordSize);
    // Same acceptance test as open(): monotone offsets, extent fully inside
    // the JSONL. A failing record either raced ahead of its JSONL flush or
    // is garbage — stop here; a later refresh (or a rebuild) resolves it.
    if (e.offset < indexed_bytes_ || e.offset > limit ||
        std::uint64_t{e.length} + 1 > limit - e.offset) {
      break;
    }
    entries_.push_back(e);
    insert_maps(entries_.size() - 1);
    indexed_bytes_ = e.offset + e.length + 1;
    ++added;
  }
  if (added > 0) sidecar_external_ = true;
  return added;
}

void ResultIndex::append(const IndexEntry& e) {
  if (e.offset < indexed_bytes_) {
    throw IndexError("index append out of order (offset " +
                     std::to_string(e.offset) + ", already indexed through " +
                     std::to_string(indexed_bytes_) + ")");
  }
  entries_.push_back(e);
  insert_maps(entries_.size() - 1);
  indexed_bytes_ = e.offset + e.length + 1;
  append_to_sidecar(e);
}

void ResultIndex::insert_maps(std::size_t entry_idx) {
  const IndexEntry& e = entries_[entry_idx];
  by_cfg_[e.cfg_digest] = entry_idx;  // later entries win, like the loader
  by_cell_[e.cell_digest].push_back(entry_idx);
}

void ResultIndex::append_to_sidecar(const IndexEntry& e) {
  std::ofstream out(idx_path_, std::ios::binary | std::ios::app);
  if (!out) throw IndexError("cannot append to index " + idx_path_);
  unsigned char rec[kRecordSize];
  encode_entry(e, rec);
  out.write(reinterpret_cast<const char*>(rec), kRecordSize);
  if (!out) throw IndexError("index write failed: " + idx_path_);
}

std::size_t ResultIndex::index_new_lines(bool write_sidecar) {
  std::ifstream in(jsonl_path_, std::ios::binary);
  if (!in) {
    // No JSONL yet (fresh campaign): an empty index is correct.
    return 0;
  }
  in.seekg(static_cast<std::streamoff>(indexed_bytes_));
  std::size_t added = 0;
  std::string line;
  std::string batch;  // sidecar records, written in one append at the end
  std::uint64_t offset = indexed_bytes_;
  while (std::getline(in, line)) {
    if (in.eof()) break;  // torn trailing line: wait for the newline
    const std::uint64_t start = offset;
    offset += line.size() + 1;
    if (line.empty()) {
      // Keep indexed_bytes_ in lockstep even across blank lines so offset
      // bookkeeping matches the JSONL exactly.
      indexed_bytes_ = offset;
      continue;
    }
    const campaign::JobRecord rec = campaign::parse_result_line(line);
    const IndexEntry e =
        index_entry(rec.job, digest_to_u64(rec.digest), rec.cfg, start,
                    static_cast<std::uint32_t>(line.size()));
    entries_.push_back(e);
    insert_maps(entries_.size() - 1);
    indexed_bytes_ = offset;
    unsigned char rec_bytes[kRecordSize];
    encode_entry(e, rec_bytes);
    batch.append(reinterpret_cast<const char*>(rec_bytes), kRecordSize);
    ++added;
  }
  if (!batch.empty() && write_sidecar) {
    std::ofstream out(idx_path_, std::ios::binary | std::ios::app);
    if (!out) throw IndexError("cannot append to index " + idx_path_);
    out.write(batch.data(), static_cast<std::streamsize>(batch.size()));
    if (!out) throw IndexError("index write failed: " + idx_path_);
  }
  return added;
}

}  // namespace rcast::serving
