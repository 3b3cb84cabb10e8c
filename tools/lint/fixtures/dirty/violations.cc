// Injected-violation fixture body: every determinism sin at once and
// a bare suppression without a justification.

#include <chrono>
#include <cstdlib>
#include <ctime>
#include <random>
#include <unordered_map>

#include "violations.hh"

double
entropySoup()
{
    std::random_device device;            // det-random
    std::srand(device());                 // det-random
    const double r = std::rand() / 2.0;   // det-random
    const auto t0 = std::chrono::steady_clock::now();  // det-clock
    const std::time_t now = std::time(nullptr);        // det-clock
    std::unordered_map<int, double> order;             // det-unordered
    order[static_cast<int>(now)] = r;
    double sum = 0.0;
    for (const auto &entry : order)
        sum += entry.second;
    sum += std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
               .count();
    return sum;  // lhrlint:allow(det-clock)
}
