// Recursive-descent parser for the ADL (grammar in docs/adl.md). Produces
// the untyped parse tree in ast.h; all name/width checking happens in sema.
#pragma once

#include <memory>
#include <string_view>

#include "adl/ast.h"
#include "support/diag.h"

namespace adlsym::adl {

/// Parse one `arch { ... }` description. Returns nullptr on hard syntax
/// errors (diagnostics in `diags`). The tree keeps its own copy of
/// `source`, which its names view into (ast.h).
std::unique_ptr<ast::ArchDecl> parseArch(std::string_view source,
                                         DiagEngine& diags);

}  // namespace adlsym::adl
