from hypothesis import settings

# Same examples on every run, and no example database carried between runs,
# so the suite's verdict does not depend on the draw.
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")

