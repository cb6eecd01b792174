#include "values/database.h"

#include "common/macros.h"

namespace kola {

int32_t Database::DefineClass(const std::string& name) {
  auto it = class_ids_.find(name);
  if (it != class_ids_.end()) return it->second;
  int32_t id = static_cast<int32_t>(classes_.size());
  classes_.push_back(ClassInfo{name, {}, 0, {}});
  class_ids_[name] = id;
  return id;
}

StatusOr<int32_t> Database::ClassId(const std::string& name) const {
  auto it = class_ids_.find(name);
  if (it == class_ids_.end()) {
    return NotFoundError("unknown class: " + name);
  }
  return it->second;
}

StatusOr<std::string> Database::ClassName(int32_t class_id) const {
  if (class_id < 0 || static_cast<size_t>(class_id) >= classes_.size()) {
    return NotFoundError("bad class id");
  }
  return classes_[class_id].name;
}

Status Database::DefineAttribute(int32_t class_id,
                                 const std::string& attribute) {
  if (class_id < 0 || static_cast<size_t>(class_id) >= classes_.size()) {
    return NotFoundError("bad class id");
  }
  ClassInfo& info = classes_[class_id];
  SchemaName& entry = names_[attribute];
  if (entry.attribute < 0) entry.attribute = num_attributes_++;
  if (SlotOf(info, &entry) >= 0) return Status::OK();
  if (info.slot_of.size() <= static_cast<size_t>(entry.attribute)) {
    info.slot_of.resize(entry.attribute + 1, -1);
  }
  info.slot_of[entry.attribute] = static_cast<int32_t>(info.num_slots++);
  for (auto& slots : info.objects) slots.resize(info.num_slots);
  return Status::OK();
}

Value Database::NewObject(int32_t class_id) {
  KOLA_CHECK(class_id >= 0 &&
             static_cast<size_t>(class_id) < classes_.size());
  ClassInfo& info = classes_[class_id];
  int64_t id = static_cast<int64_t>(info.objects.size());
  info.objects.emplace_back(info.num_slots);
  return Value::Object(class_id, id);
}

StatusOr<const Database::ClassInfo*> Database::ClassForObject(
    const Value& object) const {
  if (!object.is_object()) {
    return TypeError("expected object, got " + object.ToString());
  }
  int32_t cid = object.object_class();
  if (cid < 0 || static_cast<size_t>(cid) >= classes_.size()) {
    return NotFoundError("object has unknown class");
  }
  const ClassInfo& info = classes_[cid];
  if (object.object_id() < 0 ||
      static_cast<size_t>(object.object_id()) >= info.objects.size()) {
    return NotFoundError("dangling object reference " + object.ToString());
  }
  return &info;
}

const Database::SchemaName* Database::Find(const std::string& name) const {
  auto it = names_.find(name);
  return it == names_.end() ? nullptr : &it->second;
}

int32_t Database::SlotOf(const ClassInfo& info, const SchemaName* entry) {
  if (entry == nullptr || entry->attribute < 0 ||
      static_cast<size_t>(entry->attribute) >= info.slot_of.size()) {
    return -1;
  }
  return info.slot_of[entry->attribute];
}

Status Database::SetAttribute(const Value& object,
                              const std::string& attribute, Value value) {
  KOLA_ASSIGN_OR_RETURN(const ClassInfo* info, ClassForObject(object));
  const int32_t slot = SlotOf(*info, Find(attribute));
  if (slot < 0) {
    return NotFoundError("class " + info->name + " has no attribute " +
                         attribute);
  }
  // const_cast is confined here: ClassForObject centralizes validation and
  // the registry itself is non-const in this mutating member.
  auto& slots =
      const_cast<ClassInfo*>(info)->objects[object.object_id()];
  slots[slot] = std::move(value);
  return Status::OK();
}

StatusOr<Value> Database::ReadAttribute(const Value& object,
                                        const std::string& attribute,
                                        const SchemaName* entry) const {
  KOLA_ASSIGN_OR_RETURN(const ClassInfo* info, ClassForObject(object));
  const int32_t slot = SlotOf(*info, entry);
  if (slot < 0) {
    return NotFoundError("class " + info->name + " has no attribute " +
                         attribute);
  }
  return info->objects[object.object_id()][slot];
}

StatusOr<Value> Database::GetAttribute(const Value& object,
                                       const std::string& attribute) const {
  return ReadAttribute(object, attribute, Find(attribute));
}

bool Database::HasAttribute(const Value& object,
                            const std::string& attribute) const {
  auto info = ClassForObject(object);
  if (!info.ok()) return false;
  return SlotOf(**info, Find(attribute)) >= 0;
}

size_t Database::ObjectCount(int32_t class_id) const {
  KOLA_CHECK(class_id >= 0 &&
             static_cast<size_t>(class_id) < classes_.size());
  return classes_[class_id].objects.size();
}

Status Database::DefineExtent(const std::string& name, Value set) {
  if (!set.is_set()) {
    return TypeError("extent " + name + " must be a set");
  }
  extents_[name] = std::move(set);
  return Status::OK();
}

StatusOr<Value> Database::Extent(const std::string& name) const {
  auto it = extents_.find(name);
  if (it == extents_.end()) {
    return NotFoundError("unknown extent: " + name);
  }
  return it->second;
}

bool Database::HasExtent(const std::string& name) const {
  return extents_.count(name) > 0;
}

std::vector<std::string> Database::ExtentNames() const {
  std::vector<std::string> names;
  names.reserve(extents_.size());
  for (const auto& [name, unused] : extents_) names.push_back(name);
  return names;
}

void Database::RegisterFunction(const std::string& name, ComputedFn fn) {
  names_[name].computed = std::move(fn);
}

bool Database::HasComputedFunction(const std::string& name) const {
  const SchemaName* entry = Find(name);
  return entry != nullptr && entry->computed != nullptr;
}

StatusOr<Value> Database::CallFunction(const std::string& name,
                                       const Value& argument) const {
  const SchemaName* entry = Find(name);
  if (entry != nullptr && entry->computed != nullptr) {
    return entry->computed(*this, argument);
  }
  if (argument.is_object()) return ReadAttribute(argument, name, entry);
  return NotFoundError("no function or attribute named " + name +
                       " applicable to " + argument.ToString());
}

}  // namespace kola
