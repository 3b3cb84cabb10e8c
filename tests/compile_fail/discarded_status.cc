// Must not compile. The `discarded_status_fails_to_compile` ctest
// compiles this file against src/ with -Werror=unused-result and
// passes only on the nodiscard diagnostics for both types: a
// Status or Expected<T> dropped on the floor is a compile error,
// which is why lhrlint carries no rule for it.

#include "util/status.hh"

lhr::Status saveGrid();
lhr::Expected<int> parseCount();

void
dropBoth()
{
    saveGrid();
    parseCount();
}
