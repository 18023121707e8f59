from hypothesis import settings

# fixed examples on every run, so the test suite is reproducible; no
# deadline, because timings on a loaded machine vary
settings.register_profile("dissipent", derandomize=True, deadline=None, database=None)
settings.load_profile("dissipent")
