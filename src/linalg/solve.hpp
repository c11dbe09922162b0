// Direct solver: Cholesky for SPD systems -- the regularised Gram system of
// incremental detrending (fire/detrend.cpp) and the 6x6 Gauss-Newton normal
// equations of motion correction (fire/motion.cpp).
#pragma once

#include "linalg/matrix.hpp"

namespace gtw::linalg {

// Solve the SPD system M x = b by Cholesky.  Throws std::runtime_error if M
// is not positive definite to working precision.
Vector solve_spd(const Matrix& m, const Vector& b);

}  // namespace gtw::linalg
