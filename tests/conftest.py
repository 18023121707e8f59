from hypothesis import settings

# fixed examples on every run, so the test suite is reproducible; no
# deadline, because timings on a loaded machine vary
settings.register_profile("dissipent", derandomize=True, deadline=None, database=None)
# the same, with fifty times the examples: CI runs the domain properties
# (tests/test_domain.py) under it with --hypothesis-profile=dissipent-domain
settings.register_profile("dissipent-domain", settings.get_profile("dissipent"), max_examples=5000)
settings.load_profile("dissipent")
