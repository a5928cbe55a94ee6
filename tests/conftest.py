from hypothesis import settings

# Property tests draw the same examples on every run and keep no example
# database, so the suite stays reproducible and free of timing flakes.
settings.register_profile("deterministic", derandomize=True, deadline=None, database=None)
settings.load_profile("deterministic")
