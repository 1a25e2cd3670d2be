"""serrinlab: numerical laboratory for torsion-type Poisson problems on
star-shaped planar domains - identity verification, spectral bounds, and
symmetry-stability measurements."""

__version__ = "0.1.0"
