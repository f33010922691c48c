"""Suite-wide hypothesis settings.

Properties keep hypothesis's random examples and their full example
counts; a failure also prints a ``@reproduce_failure`` blob, so a rare
counterexample can be replayed exactly from the run's output.
"""

from hypothesis import settings

settings.register_profile("portvol", print_blob=True)
settings.load_profile("portvol")
