#ifndef KOLA_VALUES_DATABASE_H_
#define KOLA_VALUES_DATABASE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "common/statusor.h"
#include "values/value.h"

namespace kola {

/// An in-memory object database: classes (ADTs) with named attributes,
/// objects carrying attribute values, named extents (top-level collections
/// such as the paper's P and V), and registered computed functions.
///
/// The KOLA evaluator resolves a schema primitive like `age` by asking the
/// database: registered computed functions are consulted first, then object
/// attributes. This realizes the paper's "functions and predicates found in
/// ADT interfaces included in a schema". Every schema name resolves through
/// one hashed table: a name maps to its computed function, else to a
/// database-wide attribute id that indexes each class's slot vector.
class Database {
 public:
  using ComputedFn =
      std::function<StatusOr<Value>(const Database&, const Value&)>;

  Database() = default;
  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;
  Database(Database&&) = default;
  Database& operator=(Database&&) = default;

  // --- Schema definition -------------------------------------------------

  /// Defines a class and returns its id. Defining the same name twice
  /// returns the existing id.
  int32_t DefineClass(const std::string& name);

  StatusOr<int32_t> ClassId(const std::string& name) const;
  StatusOr<std::string> ClassName(int32_t class_id) const;

  /// Declares an attribute on a class. Idempotent.
  Status DefineAttribute(int32_t class_id, const std::string& attribute);

  // --- Objects ------------------------------------------------------------

  /// Allocates a fresh object of `class_id` and returns its reference value.
  Value NewObject(int32_t class_id);

  Status SetAttribute(const Value& object, const std::string& attribute,
                      Value value);

  StatusOr<Value> GetAttribute(const Value& object,
                               const std::string& attribute) const;

  /// True when `object`'s class declares `attribute`.
  bool HasAttribute(const Value& object, const std::string& attribute) const;

  /// Number of objects allocated in `class_id`.
  size_t ObjectCount(int32_t class_id) const;

  // --- Extents ------------------------------------------------------------

  /// Binds a named top-level collection (must be a set value).
  Status DefineExtent(const std::string& name, Value set);

  StatusOr<Value> Extent(const std::string& name) const;

  bool HasExtent(const std::string& name) const;

  std::vector<std::string> ExtentNames() const;

  // --- Computed functions ---------------------------------------------------

  /// Registers a computed unary function usable as a KOLA/AQUA primitive.
  void RegisterFunction(const std::string& name, ComputedFn fn);

  /// True when `name` resolves to a computed function (not an attribute).
  bool HasComputedFunction(const std::string& name) const;

  /// Resolves a schema primitive: computed function first, then attribute
  /// access on object arguments. One lookup in the name table.
  StatusOr<Value> CallFunction(const std::string& name,
                               const Value& argument) const;

 private:
  /// What a schema name resolves to.
  struct SchemaName {
    ComputedFn computed;     // set by RegisterFunction; wins over attributes
    int32_t attribute = -1;  // database-wide attribute id, -1 if none
  };

  struct ClassInfo {
    std::string name;
    // slot_of[attribute id] is this class's slot for that attribute, -1 (or
    // past the end) when the class does not declare it.
    std::vector<int32_t> slot_of;
    size_t num_slots = 0;
    // objects[i] holds the attribute slots of object id i.
    std::vector<std::vector<Value>> objects;
  };

  StatusOr<const ClassInfo*> ClassForObject(const Value& object) const;
  /// The name-table entry for `name`, or nullptr.
  const SchemaName* Find(const std::string& name) const;
  /// `info`'s slot for the attribute `entry` names; -1 when it has none.
  static int32_t SlotOf(const ClassInfo& info, const SchemaName* entry);
  /// Reads `attribute` of `object`, whose name-table entry is `entry`
  /// (nullptr when the name is unknown).
  StatusOr<Value> ReadAttribute(const Value& object,
                                const std::string& attribute,
                                const SchemaName* entry) const;

  std::vector<ClassInfo> classes_;
  std::map<std::string, int32_t> class_ids_;
  std::map<std::string, Value> extents_;
  std::unordered_map<std::string, SchemaName> names_;
  int32_t num_attributes_ = 0;
};

}  // namespace kola

#endif  // KOLA_VALUES_DATABASE_H_
