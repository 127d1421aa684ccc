#ifndef TGM_TEMPORAL_LABEL_DICT_H_
#define TGM_TEMPORAL_LABEL_DICT_H_

#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "temporal/common.h"

namespace tgm {

/// Bidirectional interning dictionary between human-readable labels
/// ("proc:sshd", "file:/var/log/wtmp") and dense LabelId values.
///
/// Dense ids let graphs store labels as int32 and let the matchers compare
/// labels with a single integer comparison. Not thread-safe; each pipeline
/// owns one dictionary.
class LabelDict {
 public:
  LabelDict() = default;

  /// Returns the id for `name`, interning it on first use.
  LabelId Intern(std::string_view name);

  /// Returns the id for `name`, or kInvalidLabel if it was never interned.
  LabelId Lookup(std::string_view name) const;

  /// Returns the label string for `id`. `id` must be a valid id.
  const std::string& Name(LabelId id) const;

  /// Number of distinct labels interned so far.
  std::size_t size() const { return names_.size(); }

 private:
  /// Hashes every string type through std::string_view, so that `find`
  /// takes a string_view without building a std::string.
  struct NameHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view name) const {
      return std::hash<std::string_view>{}(name);
    }
  };

  std::unordered_map<std::string, LabelId, NameHash, std::equal_to<>> ids_;
  std::vector<std::string> names_;
};

}  // namespace tgm

#endif  // TGM_TEMPORAL_LABEL_DICT_H_
