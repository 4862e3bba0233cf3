:- entry_point(app(g, g, any)).
app([], Ys, Ys).
app([X|Xs], Ys, [X|Zs]) :- app(Xs, Ys, Zs).
wrap(X, boxed(X)).
