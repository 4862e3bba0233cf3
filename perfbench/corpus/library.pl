% Shared list/tree library embedded in every generated driver file.
% Its condensation has leaves (app, le, gt, mem, len, add), middle
% components (nrev, part, ins, tins, tmem, tsize, tlist, tfrom) and top
% components (qs, isort, tsort).  Trees are built by tfrom/2: threading
% a tree through tins/3 over Peano keys makes failcheck's depth-k tables
% explode (seconds per file) for no extra coverage.

app([], Ys, Ys).
app([X|Xs], Ys, [X|Zs]) :- app(Xs, Ys, Zs).

le(0, _).
le(s(X), s(Y)) :- le(X, Y).

gt(s(_), 0).
gt(s(X), s(Y)) :- gt(X, Y).

mem(X, [X|_]).
mem(X, [_|Xs]) :- mem(X, Xs).

len([], 0).
len([_|Xs], s(N)) :- len(Xs, N).

nrev([], []).
nrev([X|Xs], R) :- nrev(Xs, T), app(T, [X], R).

part([], _, [], []).
part([X|Xs], P, [X|L], H) :- le(X, P), part(Xs, P, L, H).
part([X|Xs], P, L, [X|H]) :- gt(X, P), part(Xs, P, L, H).

qs([], []).
qs([X|Xs], S) :- part(Xs, X, L, H), qs(L, SL), qs(H, SH), app(SL, [X|SH], S).

ins(X, [], [X]).
ins(X, [Y|Ys], [X, Y|Ys]) :- le(X, Y).
ins(X, [Y|Ys], [Y|Zs]) :- gt(X, Y), ins(X, Ys, Zs).

isort([], []).
isort([X|Xs], S) :- isort(Xs, T), ins(X, T, S).

tins(X, leaf, node(leaf, X, leaf)).
tins(X, node(L, Y, R), node(L2, Y, R)) :- le(X, Y), tins(X, L, L2).
tins(X, node(L, Y, R), node(L, Y, R2)) :- gt(X, Y), tins(X, R, R2).

tmem(X, node(_, X, _)).
tmem(X, node(L, _, _)) :- tmem(X, L).
tmem(X, node(_, _, R)) :- tmem(X, R).

add(0, Y, Y).
add(s(X), Y, s(Z)) :- add(X, Y, Z).

tsize(leaf, 0).
tsize(node(L, _, R), s(N)) :- tsize(L, NL), tsize(R, NR), add(NL, NR, N).

tlist(leaf, []).
tlist(node(L, X, R), Out) :- tlist(L, LL), tlist(R, RL), app(LL, [X|RL], Out).

tfrom([], leaf).
tfrom([X|Xs], T) :- tfrom(Xs, T0), tins(X, T0, T).

tsort(Xs, S) :- tfrom(Xs, T), tlist(T, S).
