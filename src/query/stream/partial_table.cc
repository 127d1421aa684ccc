#include "query/stream/partial_table.h"

#include <algorithm>
#include <string>

namespace tgm {

namespace {

/// Read access to a priority_queue's underlying container (protected
/// member `c`). `&Access::c` names the inherited member through the
/// derived class — the form [class.protected] permits — and yields a
/// pointer-to-member of the base, applicable to the queue directly.
template <typename T, typename C, typename Cmp>
const C& HeapContainer(const std::priority_queue<T, C, Cmp>& q) {
  struct Access : std::priority_queue<T, C, Cmp> {
    static const C& Get(const std::priority_queue<T, C, Cmp>& queue) {
      return queue.*&Access::c;
    }
  };
  return Access::Get(q);
}

std::string SlotStr(std::uint32_t slot) {
  return "slot " + std::to_string(slot);
}

}  // namespace

std::vector<std::uint32_t>& PartialTable::BucketFor(Role role,
                                                    std::int64_t key) {
  if (role == Role::kEntity) return by_entity_[key];
  return wildcard_;
}

std::uint32_t PartialTable::Insert(std::span<const std::int64_t> binding,
                                   std::uint32_t next_edge,
                                   Timestamp first_ts, Timestamp last_ts,
                                   Timestamp expiry, Role role,
                                   std::int64_t key) {
  TGM_DCHECK(binding.size() == node_count_);
  if (!entity_index_) role = Role::kWildcard;
  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(meta_.size());
    meta_.emplace_back();
    bindings_.resize(bindings_.size() + node_count_);
  }
  std::copy(binding.begin(), binding.end(),
            bindings_.begin() + slot * node_count_);
  Meta& m = meta_[slot];
  m.next_edge = next_edge;
  m.first_ts = first_ts;
  m.last_ts = last_ts;
  m.role = role;
  m.key = key;
  m.seq = next_seq_++;
  std::vector<std::uint32_t>& bucket = BucketFor(role, key);
  m.bucket_pos = static_cast<std::uint32_t>(bucket.size());
  bucket.push_back(slot);
  by_age_.push(AgeKey{expiry, first_ts, m.seq, slot});
  ++live_;
  if (live_ > peak_) peak_ = live_;
  return slot;
}

void PartialTable::Remove(std::uint32_t slot) {
  Meta& m = meta_[slot];
  std::vector<std::uint32_t>& bucket = BucketFor(m.role, m.key);
  TGM_DCHECK(m.bucket_pos < bucket.size() && bucket[m.bucket_pos] == slot);
  std::uint32_t moved = bucket.back();
  bucket[m.bucket_pos] = moved;
  meta_[moved].bucket_pos = m.bucket_pos;
  bucket.pop_back();
  if (bucket.empty() && m.role != Role::kWildcard) {
    by_entity_.erase(m.key);
  }
  free_slots_.push_back(slot);
  --live_;
}

void PartialTable::ExpireAt(Timestamp now) {
  while (!by_age_.empty() && std::get<0>(by_age_.top()) < now) {
    std::uint32_t slot = std::get<3>(by_age_.top());
    by_age_.pop();
    Remove(slot);
  }
}

void PartialTable::EvictOldest() {
  TGM_CHECK(!by_age_.empty());
  std::uint32_t slot = std::get<3>(by_age_.top());
  by_age_.pop();
  Remove(slot);
}

std::string PartialTable::CheckInvariants() const {
  const std::size_t slots = meta_.size();
  // Arena and free-list shape.
  if (bindings_.size() != slots * node_count_) {
    return "binding arena holds " + std::to_string(bindings_.size()) +
           " entries, want " + std::to_string(slots * node_count_) + " (" +
           std::to_string(slots) + " slots x " + std::to_string(node_count_) +
           " nodes)";
  }
  if (free_slots_.size() > slots) {
    return "free list larger than the slot arena";
  }
  std::vector<char> is_free(slots, 0);
  for (std::uint32_t slot : free_slots_) {
    if (slot >= slots) {
      return "free-list " + SlotStr(slot) + " out of arena bounds " +
             std::to_string(slots);
    }
    if (is_free[slot]) return "free-list " + SlotStr(slot) + " duplicated";
    is_free[slot] = 1;
  }
  if (live_ != slots - free_slots_.size()) {
    return "live count " + std::to_string(live_) + " != allocated " +
           std::to_string(slots) + " - free " +
           std::to_string(free_slots_.size());
  }
  if (peak_ < live_) {
    return "peak " + std::to_string(peak_) + " below live " +
           std::to_string(live_);
  }
  // Bucket membership: every live slot filed exactly once, under the
  // bucket its meta names, at the position its meta records.
  if (!entity_index_ && !by_entity_.empty()) {
    return "entity buckets populated with the entity index disabled";
  }
  std::size_t filed = 0;
  std::vector<char> in_bucket(slots, 0);
  auto check_bucket = [&](const std::vector<std::uint32_t>& bucket, Role role,
                          std::int64_t key) -> std::string {
    for (std::size_t pos = 0; pos < bucket.size(); ++pos) {
      const std::uint32_t slot = bucket[pos];
      if (slot >= slots) {
        return "bucket entry " + SlotStr(slot) + " out of arena bounds";
      }
      if (is_free[slot]) {
        return "freed " + SlotStr(slot) + " still filed in a bucket";
      }
      if (in_bucket[slot]) {
        return SlotStr(slot) + " filed in more than one bucket position";
      }
      in_bucket[slot] = 1;
      ++filed;
      const Meta& m = meta_[slot];
      if (m.role != role || (role == Role::kEntity && m.key != key)) {
        return SlotStr(slot) + " meta role/key disagrees with its bucket";
      }
      if (m.bucket_pos != pos) {
        return SlotStr(slot) + " bucket_pos " + std::to_string(m.bucket_pos) +
               " != actual position " + std::to_string(pos);
      }
    }
    return std::string();
  };
  // tgm-lint: unordered-iter-ok(debug validator; order only picks which violation reports first)
  for (const auto& [key, bucket] : by_entity_) {
    if (bucket.empty()) {
      return "empty entity bucket for key " + std::to_string(key) +
             " not erased";
    }
    if (std::string err = check_bucket(bucket, Role::kEntity, key);
        !err.empty()) {
      return err;
    }
  }
  if (std::string err = check_bucket(wildcard_, Role::kWildcard, 0);
      !err.empty()) {
    return err;
  }
  if (filed != live_) {
    return "buckets file " + std::to_string(filed) + " partials, live count " +
           std::to_string(live_);
  }
  // The age heap covers exactly the live slots — the table has no lazy
  // deletion, so any mismatch is a leak or a dangling reference.
  const auto& heap = HeapContainer(by_age_);
  if (heap.size() != live_) {
    return "age heap holds " + std::to_string(heap.size()) +
           " entries, live count " + std::to_string(live_) +
           " (the heap has no lazy deletion)";
  }
  std::vector<char> in_heap(slots, 0);
  for (const AgeKey& key : heap) {
    const std::uint32_t slot = std::get<3>(key);
    if (slot >= slots || is_free[slot]) {
      return "age-heap entry names dead " + SlotStr(slot);
    }
    if (in_heap[slot]) {
      return SlotStr(slot) + " appears twice in the age heap";
    }
    in_heap[slot] = 1;
    const Meta& m = meta_[slot];
    if (std::get<1>(key) != m.first_ts || std::get<2>(key) != m.seq) {
      return "age-heap key (first_ts " + std::to_string(std::get<1>(key)) +
             ", seq " + std::to_string(std::get<2>(key)) +
             ") disagrees with " + SlotStr(slot) + " meta (first_ts " +
             std::to_string(m.first_ts) + ", seq " + std::to_string(m.seq) +
             ")";
    }
  }
  return std::string();
}

}  // namespace tgm
