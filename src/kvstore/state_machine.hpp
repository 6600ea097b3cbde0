// Replicated state machine interface + the etcd-like KV implementation.
//
// Every replica applies the same committed payload sequence; determinism of
// apply() is what makes State Machine Replication hold, and the test suite
// checks replicas byte-for-byte against each other.
#pragma once

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <new>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "kvstore/command.hpp"
#include "raft/types.hpp"

namespace dyna::kv {

class StateMachine {
 public:
  virtual ~StateMachine() = default;

  /// Apply one committed command payload; returns the client-visible result.
  /// The payload is borrowed for the duration of the call (the log entry
  /// owns it), so implementations can decode it zero-copy.
  virtual std::string apply(std::string_view payload) = 0;

  /// Serialize the full machine state. Must be deterministic: two replicas
  /// in the same logical state must produce byte-identical blobs, whatever
  /// history brought them there (snapshots are compared and shipped across
  /// replicas).
  [[nodiscard]] virtual std::string snapshot() const = 0;

  /// Replace the machine state with a blob produced by snapshot().
  virtual void restore(std::string_view blob) = 0;
};

/// A value's bytes in one allocation behind a small header that carries a
/// reference count. The live store is normally the only owner, and then a
/// write overwrites the bytes in place (the std::string::assign path, same
/// capacity policy). Copying a handle only bumps the count: that is how a
/// snapshot image shares every value with the store it was frozen from, and
/// a write to a value an image still holds goes to a fresh allocation,
/// leaving the image's bytes untouched.
///
/// The count is not atomic. An image and the store it came from belong to
/// one cluster, which one thread drives at a time.
class SharedValue {
 public:
  SharedValue() noexcept = default;
  explicit SharedValue(std::string_view bytes) { assign(bytes); }
  SharedValue(const SharedValue& other) noexcept : block_(other.block_) {
    if (block_ != nullptr) ++block_->refs;
  }
  SharedValue(SharedValue&& other) noexcept : block_(std::exchange(other.block_, nullptr)) {}
  SharedValue& operator=(SharedValue other) noexcept {
    std::swap(block_, other.block_);
    return *this;
  }
  ~SharedValue() { release(); }

  [[nodiscard]] std::string_view view() const noexcept {
    return block_ == nullptr ? std::string_view() : std::string_view(bytes(), block_->size);
  }

  /// Replace the bytes: in place when this handle is the sole owner and the
  /// capacity suffices, otherwise into a fresh block (capacity kept, or
  /// doubled when growing, as std::string does).
  void assign(std::string_view v) {
    DYNA_EXPECTS(v.size() <= kMaxSize);
    if (block_ == nullptr || block_->refs > 1 || v.size() > block_->capacity) {
      const std::size_t old = block_ == nullptr ? 0 : block_->capacity;
      const std::size_t capacity =
          v.size() <= old ? old : std::min(std::max(v.size(), 2 * old), kMaxSize);
      Header* fresh = allocate(capacity);
      release();
      block_ = fresh;
    }
    std::copy(v.begin(), v.end(), bytes());
    block_->size = static_cast<std::uint32_t>(v.size());
  }

 private:
  struct Header {
    std::uint32_t refs;
    std::uint32_t size;
    std::uint32_t capacity;
  };
  static constexpr std::size_t kMaxSize = std::numeric_limits<std::uint32_t>::max();

  [[nodiscard]] static Header* allocate(std::size_t capacity) {
    return ::new (::operator new(sizeof(Header) + capacity))
        Header{1, 0, static_cast<std::uint32_t>(capacity)};
  }
  [[nodiscard]] char* bytes() const noexcept { return reinterpret_cast<char*>(block_ + 1); }
  void release() noexcept {
    if (block_ != nullptr && --block_->refs == 0) ::operator delete(block_);
    block_ = nullptr;
  }

  Header* block_ = nullptr;
};

/// In-memory KV store with a global revision counter (mirrors etcd's
/// semantics at the granularity the experiments need — the Op vocabulary is
/// point ops only, so a hash index is observationally equivalent to etcd's
/// ordered index and keeps apply O(1)).
///
/// Layout: a dense vector of {key, value} entries plus an open-addressed,
/// linearly probed index of (hash tag, entry position) slots, at most 3/4
/// full. A lookup hashes the key once and usually settles on its first slot
/// with one key comparison; DEL swap-removes the entry and backward-shifts
/// the probe run, so the index never holds tombstones. Apply decodes
/// commands to views and allocates only where the store must own new bytes
/// (a new key, a value outgrowing its capacity, or a write to a value a
/// snapshot image still shares), so replicating a PUT stream across a
/// 65-node cluster does not turn into an allocator benchmark.
///
/// Snapshots: freeze() copies the entry vector into an immutable Image that
/// shares every value's bytes by reference count — O(keys), no value bytes
/// copied. Bytes in the snapshot() format are produced only when something
/// reads them (Image::bytes()), and restoring from an Image adopts its
/// entries without a serialize/parse round trip.
class KvStateMachine final : public StateMachine {
 public:
  struct Entry {
    std::string key;
    SharedValue value;
  };

  /// The store frozen at one revision. Immutable; later writes to the store
  /// it came from never reach it (see SharedValue).
  class Image final : public raft::SnapshotImage {
   public:
    Image(std::uint64_t revision, const std::vector<Entry>& entries)
        : revision_(revision), entries_(entries), size_(serialized_size(revision, entries)) {}

    [[nodiscard]] std::size_t size() const noexcept override { return size_; }
    [[nodiscard]] std::string bytes() const override { return serialize(revision_, entries_); }

   private:
    friend class KvStateMachine;
    std::uint64_t revision_;
    std::vector<Entry> entries_;
    std::size_t size_;
  };

  std::string apply(std::string_view payload) override {
    if (is_batch(payload)) {
      // Group-commit frame: apply members in order, return member results in
      // the same length-prefixed framing (the leader fans them back out to
      // the per-command client completions). A malformed member poisons only
      // its own result slot — the frame keeps its arity either way.
      std::string out;
      const bool ok = for_each_batched(payload, [&](std::string_view member) {
        detail::encode_field(out, apply_one(member));
      });
      if (!ok) return "ERR malformed-batch";
      return out;
    }
    return apply_one(payload);
  }

  /// Apply a single (non-batch) command payload.
  std::string apply_one(std::string_view payload) {
    const auto cmd = decode_view(payload);
    if (!cmd) return "ERR malformed";
    switch (cmd->op) {
      case Op::Put: {
        ++revision_;
        put(cmd->key, cmd->value);
        return ok_result(revision_);
      }
      case Op::Get: {
        const auto value = get(cmd->key);
        return value ? std::string(*value) : "(nil)";
      }
      case Op::Del: {
        const std::size_t pos = probe(cmd->key, tag_of(cmd->key));
        if (slots_[pos].entry == kEmpty) return "(nil)";
        erase_at(pos);
        ++revision_;
        return ok_result(revision_);
      }
      case Op::Cas: {
        const Slot slot = slots_[probe(cmd->key, tag_of(cmd->key))];
        if (slot.entry != kEmpty && entries_[slot.entry].value.view() == cmd->expected) {
          ++revision_;
          entries_[slot.entry].value.assign(cmd->value);
          return ok_result(revision_);
        }
        return "FAIL";
      }
    }
    return "ERR unknown-op";
  }

  /// Deterministic serialization: the revision, then every (key, value) pair
  /// in sorted key order, all fields length-prefixed (the same <len>:<bytes>
  /// framing the command encoding uses). Sorting matters: the entry order
  /// depends on insertion and deletion history, which differs between a
  /// replica that applied every command and one restored from an earlier
  /// snapshot — equal states must serialize identically. Written straight
  /// from the live entries; no image is built.
  [[nodiscard]] std::string snapshot() const override { return serialize(revision_, entries_); }

  /// Freeze the current contents into an image: copies the entry vector and
  /// shares every value's bytes (O(keys), no value bytes copied).
  [[nodiscard]] std::shared_ptr<const Image> freeze() const {
    return std::make_shared<const Image>(revision_, entries_);
  }

  /// Decode a blob produced by snapshot() (or Image::bytes()).
  void restore(std::string_view blob) override {
    clear();
    std::size_t pos = 0;
    const auto rev = detail::decode_field(blob, pos);
    DYNA_EXPECTS(rev.has_value());
    revision_ = 0;
    const auto [ptr, ec] =
        std::from_chars(rev->data(), rev->data() + rev->size(), revision_);
    DYNA_EXPECTS(ec == std::errc{} && ptr == rev->data() + rev->size());
    while (pos < blob.size()) {
      const auto key = detail::decode_field(blob, pos);
      const auto value = detail::decode_field(blob, pos);
      DYNA_EXPECTS(key.has_value() && value.has_value());
      put(*key, *value);
    }
  }

  /// Adopt an image: copies its entries and shares their values, then
  /// rebuilds the index. Equivalent to restore(image.bytes()).
  void restore(const Image& image) {
    entries_ = image.entries_;
    revision_ = image.revision_;
    std::size_t slots = slots_.size();
    while (entries_.size() * 4 > slots * 3) slots *= 2;
    slots_.assign(slots, Slot{0, kEmpty});
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      place(Slot{tag_of(entries_[i].key), static_cast<std::uint32_t>(i)});
    }
  }

  // ---- Introspection (tests, examples) ----
  [[nodiscard]] std::uint64_t revision() const noexcept { return revision_; }
  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }

  /// The value stored under `key`, if any (a view into the store, valid
  /// until the next apply).
  [[nodiscard]] std::optional<std::string_view> get(std::string_view key) const {
    const Slot slot = slots_[probe(key, tag_of(key))];
    if (slot.entry == kEmpty) return std::nullopt;
    return entries_[slot.entry].value.view();
  }

  /// Same key set with the same values (the revision is not compared).
  [[nodiscard]] bool same_contents(const KvStateMachine& other) const {
    if (entries_.size() != other.entries_.size()) return false;
    return std::all_of(entries_.begin(), entries_.end(), [&](const Entry& e) {
      return other.get(e.key) == e.value.view();
    });
  }

  /// Empty store, revision 0 — a brand-new replica. Keeps the entry
  /// vector's and the index's capacity (trial reuse).
  void reset_for_trial() { clear(); }

 private:
  /// One index slot: the low 32 bits of the key's hash (its home slot is
  /// tag & mask) and the entry's position, or kEmpty for a free slot.
  struct Slot {
    std::uint32_t tag;
    std::uint32_t entry;
  };
  static constexpr std::uint32_t kEmpty = std::numeric_limits<std::uint32_t>::max();
  static constexpr std::size_t kMinSlots = 16;

  [[nodiscard]] static std::uint32_t tag_of(std::string_view key) noexcept {
    return static_cast<std::uint32_t>(std::hash<std::string_view>{}(key));
  }

  [[nodiscard]] std::size_t mask() const noexcept { return slots_.size() - 1; }

  /// The slot holding `key`, or the free slot that ends its probe run.
  [[nodiscard]] std::size_t probe(std::string_view key, std::uint32_t tag) const noexcept {
    for (std::size_t pos = tag & mask();; pos = (pos + 1) & mask()) {
      const Slot s = slots_[pos];
      if (s.entry == kEmpty || (s.tag == tag && entries_[s.entry].key == key)) return pos;
    }
  }

  /// Insert a slot for a key known to be absent.
  void place(Slot slot) noexcept {
    std::size_t pos = slot.tag & mask();
    while (slots_[pos].entry != kEmpty) pos = (pos + 1) & mask();
    slots_[pos] = slot;
  }

  void put(std::string_view key, std::string_view value) {
    const std::uint32_t tag = tag_of(key);
    std::size_t pos = probe(key, tag);
    if (slots_[pos].entry != kEmpty) {
      entries_[slots_[pos].entry].value.assign(value);  // in place unless an image shares it
      return;
    }
    DYNA_EXPECTS(entries_.size() < kEmpty);
    if ((entries_.size() + 1) * 4 > slots_.size() * 3) {
      const std::vector<Slot> old =
          std::exchange(slots_, std::vector<Slot>(slots_.size() * 2, Slot{0, kEmpty}));
      for (const Slot s : old) {
        if (s.entry != kEmpty) place(s);
      }
      pos = probe(key, tag);
    }
    slots_[pos] = Slot{tag, static_cast<std::uint32_t>(entries_.size())};
    entries_.push_back(Entry{std::string(key), SharedValue(value)});
  }

  /// Remove the entry whose slot is `pos`.
  void erase_at(std::size_t pos) {
    const std::uint32_t victim = slots_[pos].entry;
    // Backward-shift deletion: walk the rest of the probe run and pull each
    // slot into the hole unless that would move it before its home slot.
    std::size_t hole = pos;
    for (std::size_t next = (hole + 1) & mask(); slots_[next].entry != kEmpty;
         next = (next + 1) & mask()) {
      const std::size_t home = slots_[next].tag & mask();
      if (((next - home) & mask()) >= ((next - hole) & mask())) {
        slots_[hole] = slots_[next];
        hole = next;
      }
    }
    slots_[hole].entry = kEmpty;
    // Swap-remove: the last entry takes the victim's position.
    const auto last = static_cast<std::uint32_t>(entries_.size() - 1);
    if (victim != last) {
      const std::string& moved = entries_[last].key;
      slots_[probe(moved, tag_of(moved))].entry = victim;
      entries_[victim] = std::move(entries_[last]);
    }
    entries_.pop_back();
  }

  void clear() {
    entries_.clear();
    std::fill(slots_.begin(), slots_.end(), Slot{0, kEmpty});
    revision_ = 0;
  }

  /// Bytes one entry adds to the serialization.
  [[nodiscard]] static std::size_t entry_size(const Entry& e) noexcept {
    return detail::encoded_size(e.key.size()) + detail::encoded_size(e.value.view().size());
  }

  [[nodiscard]] static std::size_t serialized_size(std::uint64_t revision,
                                                   const std::vector<Entry>& entries) noexcept {
    char rev[24];
    std::size_t bytes = detail::encoded_size(
        static_cast<std::size_t>(std::to_chars(rev, rev + sizeof rev, revision).ptr - rev));
    for (const Entry& e : entries) bytes += entry_size(e);
    return bytes;
  }

  [[nodiscard]] static std::string serialize(std::uint64_t revision,
                                             const std::vector<Entry>& entries) {
    // One pass over the entries collects sort keys and the exact blob size;
    // one sort orders them; the blob is written in place.
    struct Sorted {
      std::uint64_t prefix;  ///< first 8 key bytes, big-endian, zero-padded
      const Entry* entry;
    };
    std::vector<Sorted> order;
    order.reserve(entries.size());
    char rev[24];
    const auto [end, ec] = std::to_chars(rev, rev + sizeof rev, revision);
    (void)ec;  // 64-bit decimal always fits
    const std::string_view rev_field(rev, end);
    std::size_t bytes = detail::encoded_size(rev_field.size());
    for (const Entry& e : entries) {
      std::uint64_t prefix = 0;
      for (std::size_t i = 0; i < 8; ++i) {
        prefix = prefix << 8 | (i < e.key.size() ? static_cast<unsigned char>(e.key[i]) : 0u);
      }
      order.push_back(Sorted{prefix, &e});
      bytes += entry_size(e);
    }
    // Zero padding sorts below every byte, so prefix order agrees with key
    // order and most comparisons never touch the keys' memory.
    std::sort(order.begin(), order.end(), [](const Sorted& a, const Sorted& b) {
      return a.prefix != b.prefix ? a.prefix < b.prefix : a.entry->key < b.entry->key;
    });
    std::string out(bytes, '\0');
    char* p = detail::encode_field(out.data(), rev_field);
    for (const Sorted& s : order) {
      p = detail::encode_field(p, s.entry->key);
      p = detail::encode_field(p, s.entry->value.view());
    }
    DYNA_ENSURES(p == out.data() + out.size());
    return out;
  }

  /// "OK <revision>" without the snprintf detour inside std::to_string.
  [[nodiscard]] static std::string ok_result(std::uint64_t rev) {
    char buf[24] = {'O', 'K', ' '};
    const auto [end, ec] = std::to_chars(buf + 3, buf + sizeof(buf), rev);
    (void)ec;  // 64-bit decimal always fits in 21 chars
    return std::string(buf, end);
  }

  std::vector<Entry> entries_;
  std::vector<Slot> slots_ = std::vector<Slot>(kMinSlots, Slot{0, kEmpty});
  std::uint64_t revision_ = 0;
};

}  // namespace dyna::kv
