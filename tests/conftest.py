from hypothesis import settings

# Property tests draw the same examples on every run and keep no example
# database, so the suite stays reproducible and free of timing flakes.
settings.register_profile(
    "deterministic", derandomize=True, max_examples=200, deadline=None, database=None
)
settings.load_profile("deterministic")

# Opt-in wider search with fresh examples on every run:
# pytest tests/test_properties.py --hypothesis-profile=explore
settings.register_profile("explore", max_examples=2000, deadline=None, database=None)
