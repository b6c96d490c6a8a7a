#include "repl/codec.hpp"

namespace vrep::repl {

namespace {
void append(std::vector<std::uint8_t>& out, Payload bytes) {
  out.insert(out.end(), bytes.begin(), bytes.end());
}
}  // namespace

void encode(const ImageChunk& m, std::vector<std::uint8_t>& out) {
  out.clear();
  append(out, pack(m.off));
  append(out, m.bytes);
}

bool decode(Payload p, ImageChunk* m) {
  if (p.size() < 8 || !unpack(p.first(8), m->off)) return false;
  m->bytes = p.subspan(8);
  return true;
}

void batch_begin(std::vector<std::uint8_t>& batch) {
  batch.clear();
  batch.resize(kBatchHeaderBytes);  // sequence stamped at commit
}

void batch_append(std::vector<std::uint8_t>& batch, std::uint32_t off, const void* src,
                  std::size_t len) {
  append(batch, pack(off, static_cast<std::uint32_t>(len)));
  append(batch, Payload(static_cast<const std::uint8_t*>(src), len));
}

void batch_stamp(std::vector<std::uint8_t>& batch, std::uint64_t seq) {
  std::memcpy(batch.data(), &seq, 8);
}

bool batch_valid(const std::uint8_t* payload, std::size_t size, std::size_t db_size) {
  if (size < kBatchHeaderBytes) return false;
  std::size_t at = kBatchHeaderBytes;
  while (at < size) {
    std::uint32_t off = 0, len = 0;
    if (at + 8 > size || !unpack(Payload(payload + at, 8), off, len)) return false;
    at += 8;
    if (at + len > size || off + std::uint64_t{len} > db_size) return false;
    at += len;
  }
  return true;
}

std::uint64_t batch_seq(const std::uint8_t* payload) {
  std::uint64_t seq = 0;
  unpack(Payload(payload, 8), seq);
  return seq;
}

bool BatchReader::next(RedoChunk* out) {
  std::uint32_t off = 0;
  if (at_ + 8 > size_ || !unpack(Payload(payload_ + at_, 8), off, out->len)) return false;
  at_ += 8;
  out->db_off = off;
  out->data = payload_ + at_;
  at_ += out->len;
  return true;
}

void group_begin(std::vector<std::uint8_t>& group, std::uint32_t count) {
  group.clear();
  append(group, pack(count));
}

void group_append(std::vector<std::uint8_t>& group, Payload batch) {
  append(group, pack(static_cast<std::uint32_t>(batch.size())));
  append(group, batch);
}

bool group_valid(const std::uint8_t* payload, std::size_t size, std::size_t db_size) {
  std::uint32_t count = 0;
  if (size < 4 || !unpack(Payload(payload, 4), count) || count < 1) return false;
  std::size_t at = 4;
  std::uint64_t expect_seq = 0;
  for (std::uint32_t i = 0; i < count; ++i) {
    std::uint32_t len = 0;
    if (at + 4 > size || !unpack(Payload(payload + at, 4), len)) return false;
    at += 4;
    if (len < kBatchHeaderBytes || at + len > size) return false;
    if (!batch_valid(payload + at, len, db_size)) return false;
    const std::uint64_t seq = batch_seq(payload + at);
    if (i > 0 && seq != expect_seq) return false;  // sub-batches must be contiguous ascending
    expect_seq = seq + 1;
    at += len;
  }
  return at == size;
}

GroupReader::GroupReader(const std::uint8_t* payload, std::size_t size)
    : payload_(payload), size_(size) {
  unpack(Payload(payload, 4), count_);
}

bool GroupReader::next(const std::uint8_t** batch, std::size_t* len) {
  std::uint32_t sub_len = 0;
  if (at_ + 4 > size_ || !unpack(Payload(payload_ + at_, 4), sub_len)) return false;
  at_ += 4;
  *len = sub_len;
  *batch = payload_ + at_;
  at_ += *len;
  return true;
}

std::vector<std::uint8_t> encode(const XPrepare& m) {
  std::vector<std::uint8_t> out;
  out.reserve(8 + m.batch.size());
  append(out, pack(m.xid));
  append(out, m.batch);
  return out;
}

bool decode(Payload p, std::size_t db_size, XPrepare* m) {
  if (p.size() < 8 || !batch_valid(p.data() + 8, p.size() - 8, db_size)) return false;
  unpack(p.first(8), m->xid);
  m->batch = p.subspan(8);
  return true;
}

}  // namespace vrep::repl
