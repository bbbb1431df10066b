"""Bad level arguments for the two entries that take one level or a
sequence: asymptotics.big_f_n, whose lowest level is 1, and
quadrature.tunneling_exact, whose lowest level is 0.

Each case is (argument, exception type, start of the message), the message
that the first bad level raises as it would alone.
"""

import numpy as np

BAD_LEVELS = [
    ([5, True, 7], TypeError, "n must be an integer, got True"),
    ([5, 6.0], TypeError, "n must be an integer, got 6.0"),
    ([5, "7"], TypeError, "n must be an integer, got '7'"),
    ([5, np.bool_(True)], TypeError, "n must be an integer, got "),
    ([5, -3, 0], ValueError, "n must be nonnegative, got -3"),
    ([5, 0, -3], ValueError, "n must be >= 1 (the formula diverges"),
    (np.array([5, 0]), ValueError, "n must be >= 1 (the formula diverges"),
    ([10 ** 400, 0], ValueError, "n must be >= 1 (the formula diverges"),
    (True, TypeError, "n must be an integer, got True"),
    (6.0, TypeError, "n must be an integer, got 6.0"),
    (np.bool_(True), TypeError, "n must be an integer, got "),
    (0, ValueError, "n must be >= 1 (the formula diverges"),
    (np.int64(-3), ValueError, "n must be nonnegative, got -3"),
    ((5, 6.5), TypeError, "n must be an integer, got 6.5"),
    (range(-1, 5), ValueError, "n must be nonnegative, got -1"),
    (np.array([5.0, 6.0]), TypeError, "n must be an integer, got "),
    (np.array([[5, 6]]), TypeError, "n must be an integer, got "),
    ([-1, 2.5, True], ValueError, "n must be nonnegative, got -1"),
]

# The cases whose message does not depend on the lowest level being 1.
BAD_LEVELS_FROM_0 = [case for case in BAD_LEVELS
                     if not case[2].startswith("n must be >= 1")]
