#include "sim/snapshot.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>

#include "core/assert.hpp"
#include "core/json_min.hpp"

namespace mr {
namespace {

// ---------------------------------------------------------------------------
// Little-endian scalar encode/decode. The payload is byte-defined, not
// struct-defined, so snapshots are portable across compilers/ABIs.

/// Payload bytes per element and of the fixed counter tail.
constexpr std::size_t kPacketBytes = 4 * 4 + 8 + 1 + 4 + 1 + 3 * 8;
constexpr std::size_t kNodeStateBytes = 8;
constexpr std::size_t kInjectionBytes = 8 + 4;
constexpr std::size_t kWaitingBytes = 4;
constexpr std::size_t kTailBytes = 8 + 8 + 1 + 8 + 4 + 8 + 8;

std::size_t payload_size(std::size_t packets, std::size_t nodes,
                         std::size_t injections, std::size_t waiting) {
  return packets * kPacketBytes + nodes * kNodeStateBytes +
         injections * kInjectionBytes + waiting * kWaitingBytes + kTailBytes;
}

/// Fixed-width stores into a buffer already sized for the whole payload.
class Writer {
 public:
  explicit Writer(char* at) : at_(at) {}

  void u64(std::uint64_t v) { store(v, 8); }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void u32(std::uint32_t v) { store(v, 4); }
  void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
  void u8(std::uint8_t v) { *at_++ = static_cast<char>(v); }
  const char* end() const { return at_; }

 private:
  void store(std::uint64_t v, int bytes) {
    for (int i = 0; i < bytes; ++i) at_[i] = static_cast<char>(v >> (8 * i));
    at_ += bytes;
  }
  char* at_;
};

/// Bounds-checked payload reader; any overrun is a Format error.
class Reader {
 public:
  explicit Reader(std::string_view bytes) : bytes_(bytes) {}

  std::uint64_t u64() {
    need(8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
      v |= static_cast<std::uint64_t>(static_cast<unsigned char>(bytes_[pos_ + i])) << (8 * i);
    pos_ += 8;
    return v;
  }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  std::uint32_t u32() {
    need(4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
      v |= static_cast<std::uint32_t>(static_cast<unsigned char>(bytes_[pos_ + i])) << (8 * i);
    pos_ += 4;
    return v;
  }
  std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  std::uint8_t u8() {
    need(1);
    return static_cast<std::uint8_t>(bytes_[pos_++]);
  }
  bool exhausted() const { return pos_ == bytes_.size(); }

 private:
  void need(std::size_t n) {
    if (bytes_.size() - pos_ < n)
      throw SnapshotError(SnapshotError::Kind::Format, "snapshot payload truncated");
  }
  std::string_view bytes_;
  std::size_t pos_ = 0;
};

std::uint64_t fnv1a(std::string_view bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string hex_u64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

const char* layout_name(QueueLayout layout) {
  return layout == QueueLayout::Central ? "central" : "per-inlink";
}

[[noreturn]] void format_error(const std::string& what) {
  throw SnapshotError(SnapshotError::Kind::Format, "snapshot: " + what);
}

// Header field accessors; every miss is a Format error so a hand-edited or
// truncated header fails loudly instead of defaulting.
const json::Value& field(const json::Value& obj, const char* key) {
  const json::Value* v = obj.find(key);
  if (!v) format_error(std::string("header missing field \"") + key + "\"");
  return *v;
}
std::string str_field(const json::Value& obj, const char* key) {
  const json::Value& v = field(obj, key);
  if (!v.is_string()) format_error(std::string("header field \"") + key + "\" must be a string");
  return v.string;
}
/// An integral header number that T holds; integers beyond ±2^53, which a
/// double cannot count exactly, are rejected too.
template <typename T>
T int_field(const json::Value& obj, const char* key) {
  const json::Value& v = field(obj, key);
  if (!v.is_number()) format_error(std::string("header field \"") + key + "\" must be a number");
  constexpr double kExact = 9007199254740992.0;  // 2^53
  const double lo = std::max(static_cast<double>(std::numeric_limits<T>::min()), -kExact);
  const double hi = std::min(static_cast<double>(std::numeric_limits<T>::max()), kExact);
  if (!(v.number >= lo && v.number <= hi) || v.number != std::trunc(v.number))
    format_error(std::string("header field \"") + key + "\" is not an integer in range");
  return static_cast<T>(v.number);
}

}  // namespace

std::string serialize_snapshot(const EngineSnapshot& snap) {
  const std::size_t payload_len =
      payload_size(snap.packets.size(), snap.node_state.size(),
                   snap.injections.size(), snap.waiting_injections.size());

  // The header carries the payload checksum, so it is written with a
  // placeholder that is patched once the payload is in place.
  std::ostringstream h;
  h << kSnapshotMagic << "\n";
  h << "{\"topology\":\"" << json::escape(snap.meta.topology) << "\""
    << ",\"width\":" << snap.meta.width << ",\"height\":" << snap.meta.height
    << ",\"algorithm\":\"" << json::escape(snap.meta.algorithm) << "\""
    << ",\"k\":" << snap.meta.queue_capacity
    << ",\"layout\":\"" << layout_name(snap.meta.layout) << "\""
    << ",\"shards\":" << snap.meta.shards << ",\"step\":" << snap.meta.step
    << ",\"packets\":" << snap.packets.size()
    << ",\"nodes\":" << snap.node_state.size()
    << ",\"injections\":" << snap.injections.size()
    << ",\"waiting\":" << snap.waiting_injections.size()
    << ",\"payload_bytes\":" << payload_len << ",\"checksum\":\"";
  const auto checksum_at = static_cast<std::size_t>(h.tellp());
  h << std::string(16, '0') << "\"";
  h << ",\"aux\":{";
  bool first = true;
  for (const auto& [key, blob] : snap.aux) {
    if (!first) h << ",";
    first = false;
    h << "\"" << json::escape(key) << "\":\"" << json::escape(blob) << "\"";
  }
  h << "}}\n";

  std::string out = std::move(h).str();
  const std::size_t payload_at = out.size();
  out.resize(payload_at + payload_len);
  Writer w(out.data() + payload_at);
  for (const Packet& pk : snap.packets) {
    w.i32(pk.id);
    w.i32(pk.source);
    w.i32(pk.dest);
    w.i32(pk.location);
    w.u64(pk.state);
    w.u8(pk.queue);
    w.i32(pk.slot);
    w.u8(pk.arrival_inlink);
    w.i64(pk.injected_at);
    w.i64(pk.arrived_at);
    w.i64(pk.delivered_at);
  }
  for (std::uint64_t s : snap.node_state) w.u64(s);
  for (const auto& [step, id] : snap.injections) {
    w.i64(step);
    w.i32(id);
  }
  for (PacketId id : snap.waiting_injections) w.i32(id);
  w.u64(snap.injection_cursor);
  w.u64(snap.delivered_count);
  w.u8(snap.stalled ? 1 : 0);
  w.u64(snap.exchange_count);
  w.i32(snap.max_occupancy_seen);
  w.i64(snap.total_moves);
  w.i64(snap.stall_run);
  MR_REQUIRE(w.end() == out.data() + out.size());

  const std::string checksum =
      hex_u64(fnv1a(std::string_view(out).substr(payload_at)));
  out.replace(checksum_at, checksum.size(), checksum);
  return out;
}

EngineSnapshot parse_snapshot(std::string_view bytes) {
  const std::size_t magic_end = bytes.find('\n');
  if (magic_end == std::string_view::npos || bytes.substr(0, magic_end) != kSnapshotMagic)
    format_error(std::string("bad magic, expected \"") + kSnapshotMagic + "\"");

  const std::size_t header_end = bytes.find('\n', magic_end + 1);
  if (header_end == std::string_view::npos) format_error("missing header line");
  const std::string header_text(bytes.substr(magic_end + 1, header_end - magic_end - 1));

  std::string err;
  std::optional<json::Value> header = json::parse(header_text, &err);
  if (!header || !header->is_object()) format_error("header is not a JSON object: " + err);

  EngineSnapshot snap;
  snap.meta.topology = str_field(*header, "topology");
  snap.meta.width = int_field<std::int32_t>(*header, "width");
  snap.meta.height = int_field<std::int32_t>(*header, "height");
  snap.meta.algorithm = str_field(*header, "algorithm");
  snap.meta.queue_capacity = int_field<int>(*header, "k");
  const std::string layout = str_field(*header, "layout");
  if (layout == "central") {
    snap.meta.layout = QueueLayout::Central;
  } else if (layout == "per-inlink") {
    snap.meta.layout = QueueLayout::PerInlink;
  } else {
    format_error("unknown layout \"" + layout + "\"");
  }
  snap.meta.shards = int_field<int>(*header, "shards");
  snap.meta.step = int_field<Step>(*header, "step");

  const auto n_packets = int_field<std::int64_t>(*header, "packets");
  const auto n_nodes = int_field<std::int64_t>(*header, "nodes");
  const auto n_injections = int_field<std::int64_t>(*header, "injections");
  const auto n_waiting = int_field<std::int64_t>(*header, "waiting");
  const auto n_payload = int_field<std::int64_t>(*header, "payload_bytes");
  if (n_packets < 0 || n_nodes < 0 || n_injections < 0 || n_waiting < 0 || n_payload < 0)
    format_error("negative element count in header");

  const json::Value& aux = field(*header, "aux");
  if (!aux.is_object()) format_error("header field \"aux\" must be an object");
  for (const auto& [key, value] : aux.object) {
    if (!value.is_string()) format_error("aux entry \"" + key + "\" must be a string");
    snap.aux.emplace_back(key, value.string);
  }

  const std::string_view payload = bytes.substr(header_end + 1);
  if (payload.size() != static_cast<std::size_t>(n_payload))
    format_error("payload size mismatch (header says " + std::to_string(n_payload) +
                 " bytes, file has " + std::to_string(payload.size()) + ")");
  // Counts of at most 2^53 cannot overflow the size sum.
  if (payload_size(static_cast<std::size_t>(n_packets), static_cast<std::size_t>(n_nodes),
                   static_cast<std::size_t>(n_injections),
                   static_cast<std::size_t>(n_waiting)) != payload.size())
    format_error("element counts in header do not add up to the payload size");
  const std::string checksum = str_field(*header, "checksum");
  if (checksum != hex_u64(fnv1a(payload))) format_error("payload checksum mismatch");

  Reader r(payload);
  snap.packets.resize(static_cast<std::size_t>(n_packets));
  for (Packet& pk : snap.packets) {
    pk.id = r.i32();
    pk.source = r.i32();
    pk.dest = r.i32();
    pk.location = r.i32();
    pk.state = r.u64();
    pk.queue = r.u8();
    pk.slot = r.i32();
    pk.arrival_inlink = r.u8();
    pk.injected_at = r.i64();
    pk.arrived_at = r.i64();
    pk.delivered_at = r.i64();
    pk.profitable = 0;  // derived; Engine::restore recomputes
  }
  snap.node_state.resize(static_cast<std::size_t>(n_nodes));
  for (std::uint64_t& s : snap.node_state) s = r.u64();
  snap.injections.resize(static_cast<std::size_t>(n_injections));
  for (auto& [step, id] : snap.injections) {
    step = r.i64();
    id = r.i32();
  }
  snap.waiting_injections.resize(static_cast<std::size_t>(n_waiting));
  for (PacketId& id : snap.waiting_injections) id = r.i32();
  snap.injection_cursor = r.u64();
  snap.delivered_count = r.u64();
  snap.stalled = r.u8() != 0;
  snap.exchange_count = r.u64();
  snap.max_occupancy_seen = r.i32();
  snap.total_moves = r.i64();
  snap.stall_run = r.i64();
  if (!r.exhausted()) format_error("trailing bytes after payload");
  return snap;
}

void write_snapshot_file(const std::string& path, const EngineSnapshot& snap) {
  write_text_file_atomic(path, serialize_snapshot(snap));
}

EngineSnapshot read_snapshot_file(const std::string& path) {
  std::string bytes;
  if (!read_text_file(path, &bytes))
    throw SnapshotError(SnapshotError::Kind::Io, "cannot read snapshot file: " + path);
  return parse_snapshot(bytes);
}

bool read_text_file(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buf;
  buf << in.rdbuf();
  if (in.bad()) return false;
  *out = buf.str();
  return true;
}

void write_text_file_atomic(const std::string& path, const std::string& content) {
  namespace fs = std::filesystem;
  std::error_code ec;
  const fs::path target(path);
  if (target.has_parent_path()) {
    fs::create_directories(target.parent_path(), ec);
    if (ec)
      throw SnapshotError(SnapshotError::Kind::Io,
                          "cannot create directory " + target.parent_path().string() +
                              ": " + ec.message());
  }
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) throw SnapshotError(SnapshotError::Kind::Io, "cannot open for write: " + tmp);
    out.write(content.data(), static_cast<std::streamsize>(content.size()));
    out.flush();
    if (!out) throw SnapshotError(SnapshotError::Kind::Io, "short write: " + tmp);
  }
  fs::rename(tmp, path, ec);
  if (ec) {
    fs::remove(tmp, ec);
    throw SnapshotError(SnapshotError::Kind::Io, "cannot rename into place: " + path);
  }
}

}  // namespace mr
