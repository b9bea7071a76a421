"""symloc: numerical nonabelian localization on explicit Hamiltonian spaces."""

import logging

__version__ = "0.1.0"

# Library logger: silent unless the application configures logging.
logging.getLogger(__name__).addHandler(logging.NullHandler())
