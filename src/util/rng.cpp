#include "syndog/util/rng.hpp"

#include <cmath>
#include <stdexcept>

namespace syndog::util {

double Rng::pareto(double alpha, double xm) {
  if (alpha <= 0.0 || xm <= 0.0) {
    throw std::invalid_argument("pareto: alpha and xm must be positive");
  }
  // Inverse-CDF: F(x) = 1 - (xm/x)^alpha.
  double u = uniform();
  if (u >= 1.0) u = std::nextafter(1.0, 0.0);
  return xm / std::pow(1.0 - u, 1.0 / alpha);
}

}  // namespace syndog::util
