import sys

import pytest


@pytest.fixture
def count_calls(monkeypatch):
    """``count_calls(fn)`` replaces `fn` in every loaded cachelab module that
    binds it with a wrapper that records each call's first argument, and
    returns the list of those arguments."""
    def patch(fn):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[0])
            return fn(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "cachelab" and getattr(module, fn.__name__, None) is fn:
                monkeypatch.setattr(module, fn.__name__, counted)
        return calls
    return patch
