"""Every property test draws the same examples on every run: hypothesis is
derandomized, keeps no example database in the checkout and sets no
per-example deadline, since a CLI example may fork worker processes."""

from hypothesis import settings

settings.register_profile("seeded", derandomize=True, database=None, deadline=None)
settings.load_profile("seeded")
