#ifndef TSE_ALGEBRA_PROCESSOR_H_
#define TSE_ALGEBRA_PROCESSOR_H_

#include <functional>
#include <string>

#include "algebra/query.h"
#include "common/result.h"
#include "schema/schema_graph.h"

namespace tse::algebra {

/// The Extended Object Algebra Processor of the TSE architecture
/// (Figure 6): executes `defineVC <name> as <query>` statements,
/// materializing one virtual class per algebra operator in the query
/// tree. Nested sub-expressions become auxiliary classes named
/// "<name>$<n>".
///
/// The processor only *creates* classes; integrating them into the
/// classified global DAG is the Classifier's job, which the caller
/// hooks in through `integrate`.
class AlgebraProcessor {
 public:
  /// Places a just-created class and returns the class that represents
  /// it from then on (itself, or an existing duplicate).
  using Integrate = std::function<Result<ClassId>(ClassId created)>;

  explicit AlgebraProcessor(schema::SchemaGraph* schema) : schema_(schema) {}

  /// Executes the statement and returns the top-level class. The new
  /// class appears in the global schema like any persistent class.
  /// When `integrate` is set it runs on every created class in creation
  /// order (auxiliaries before the classes derived from them), and a
  /// parent derives from the class it returned.
  Result<ClassId> DefineVC(const std::string& name, const Query::Ptr& query,
                           const Integrate& integrate = nullptr);

 private:
  Result<ClassId> Materialize(const std::string& name,
                              const Query::Ptr& query, int* counter,
                              const std::string& top_name,
                              const Integrate& integrate);

  schema::SchemaGraph* schema_;
};

}  // namespace tse::algebra

#endif  // TSE_ALGEBRA_PROCESSOR_H_
