from hypothesis import settings

# Property tests draw the same examples on every run, so the suite's result
# does not depend on the run; no example database is written.
settings.register_profile("repeatable", derandomize=True, deadline=None,
                          database=None)
settings.load_profile("repeatable")
