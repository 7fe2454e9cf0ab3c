"""hecke7: a computational lab for the Grossencharacter L-functions of Q(sqrt(-7)).

Modules:
    field    - exact arithmetic in Z[eta], Hecke coefficients, float64 prime table
    specfun  - precision-controlled special functions and constants
    vz       - exact central values via the A(n)/B(n) polynomial recursions
    central  - central values by incomplete-gamma series, completed L, zeros
    moments  - family moments, the second-moment conjecture, delta averages
    density  - one-level density: explicit formula, empirical, RMT, ratios
    cli      - command-line front end
"""

__version__ = "0.1.0"
