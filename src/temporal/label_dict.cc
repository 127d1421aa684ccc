#include "temporal/label_dict.h"

namespace tgm {

LabelId LabelDict::Intern(std::string_view name) {
  auto it = ids_.find(name);
  if (it != ids_.end()) return it->second;
  LabelId id = static_cast<LabelId>(names_.size());
  names_.emplace_back(name);
  ids_.emplace(names_.back(), id);
  return id;
}

LabelId LabelDict::Lookup(std::string_view name) const {
  auto it = ids_.find(name);
  return it == ids_.end() ? kInvalidLabel : it->second;
}

const std::string& LabelDict::Name(LabelId id) const {
  TGM_CHECK(id >= 0 && static_cast<std::size_t>(id) < names_.size());
  return names_[static_cast<std::size_t>(id)];
}

}  // namespace tgm
