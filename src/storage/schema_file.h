// Text schema files: a tiny declarative format for standing up a catalog
// from delimited files, shared by the interactive shell (examples/lhsql)
// and the server binary (tools/lh_serve).
//
//   # comments start with '#'
//   table nation n_nationkey:key:int:nationkey n_name:string
//   load nation nation.tbl
//
// Column syntax: name[:key]:type[:domain] with type one of
// int|long|float|double|string|date. Key columns may name their shared
// domain (defaults to the column name).

#ifndef LEVELHEADED_STORAGE_SCHEMA_FILE_H_
#define LEVELHEADED_STORAGE_SCHEMA_FILE_H_

#include <string>
#include <vector>

#include "storage/schema.h"
#include "storage/table.h"
#include "util/status.h"

namespace levelheaded {

/// Parses one `name[:key]:type[:domain]` column token.
[[nodiscard]] Result<ColumnSpec> ParseColumnSpec(const std::string& token);

/// A parsed schema file: table declarations and data-load directives,
/// separated so they can be applied independently. lh_serve with several
/// schema files (one per data partition) declares the shared tables once
/// and then runs every partition's loads into the SAME catalog — key
/// columns encode through the catalog's shared domain dictionaries, so N
/// partitions build one dictionary set, never N duplicated ones.
struct SchemaFileSpec {
  struct TableDecl {
    std::string name;
    std::vector<ColumnSpec> columns;
  };
  struct LoadDecl {
    std::string table;
    std::string file;
  };
  std::vector<TableDecl> tables;
  std::vector<LoadDecl> loads;
};

/// Parses `path` into a spec without touching any catalog.
[[nodiscard]] Result<SchemaFileSpec> ParseSchemaFile(const std::string& path);

/// Declares `spec`'s tables into `catalog`. A table that already exists
/// (by name) is skipped — per-partition schema files repeat the shared
/// declarations — with no column re-validation.
[[nodiscard]] Status DeclareSchemaTables(const SchemaFileSpec& spec,
                                         Catalog* catalog);

/// Runs `spec`'s load directives, appending rows to already-declared
/// catalog tables.
[[nodiscard]] Status LoadSchemaData(const SchemaFileSpec& spec,
                                    Catalog* catalog);

/// Executes the `table`/`load` directives in `path` against `catalog`
/// (ParseSchemaFile + DeclareSchemaTables + LoadSchemaData).
/// Does not finalize the catalog — callers add more tables or finalize
/// themselves.
[[nodiscard]] Status LoadSchemaFile(const std::string& path,
                                    Catalog* catalog);

}  // namespace levelheaded

#endif  // LEVELHEADED_STORAGE_SCHEMA_FILE_H_
