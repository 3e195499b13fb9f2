"""Valid polynomial texts that the fuzz tests start from.

No power has a base with x in it, and every base with several terms is
small: three mutations then make no power that the budget lets through and
that is slow to parse or expand.
"""

VALID_TEXTS = [
    "x*x - y", "(x*x - y)*(x*x - y) + x*y^2", "1/2 + 3*x/4", "(y^2 + 1)/(2*y)*x - 7",
    "x*x*x - 5/128*y^5*x + (1 + y)^3", "(x - y)*(x + y)/(1 + y) - x/y^2", "-(x)*(y) + 10",
]
