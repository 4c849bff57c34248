"""cpelab: spectral simulator and operator laboratory for the compressible
primitive equations on the periodic cylinder G x (0,1), G = (0,1)^2.

The package provides

* ``grid``          -- Fourier x Chebyshev discretization of the cylinder,
* ``transforms``    -- physical parameters, pressure laws, and the vertical
                       weights and column density of the Lame operator,
* ``flowmap``       -- the 2D horizontal flow map driven by the vertically
                       averaged velocity (Lagrangian bookkeeping),
* ``operators``     -- hydrostatic Lame and compressible hydrostatic Stokes
                       operators, symbols and dense realizations,
* ``stokes_solver`` -- resolvent / steady solvers and spectral-bound
                       estimation for the Stokes block operator,
* ``evolve``        -- IMEX time integration of the transformed systems in
                       hydrostatic Lagrangian coordinates,
* ``diagnostics``   -- mass / energy / decay-rate functionals,
* ``reference``     -- slow symbolic reference implementations (oracles),
* ``verify``        -- the correctness battery of ``cpelab verify``,
* ``cli``           -- the ``cpelab`` command line interface.
"""

__version__ = "0.1.0"
