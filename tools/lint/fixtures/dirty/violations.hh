// Injected-violation fixture: a header with no include guard and a
// leaked namespace. Every line here exists to keep lhrlint honest —
// the lhrlint_fixture_dirty ctest (and the CI lint job) require a
// nonzero exit on this tree.

#include <string>

using namespace std;
