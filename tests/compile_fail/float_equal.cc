// Must not compile. The `float_equal_fails_to_compile` ctest compiles
// this file with a lab target's own compile options and passes only
// on GCC's float-equal diagnostic: a raw float ==/!= is a compile
// error, which is why lhrlint carries no rule for it.

bool
isHalf(double x)
{
    return x == 0.5;
}
