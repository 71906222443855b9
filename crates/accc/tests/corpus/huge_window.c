/* Window parameters at the edge of `int`: the symbolic bounds must not
   overflow while proving (or failing to prove) anything. */
void huge_window(int n, double *x, double *y) {
#pragma acc localaccess(x) stride(2147483647) left(2147483647)
#pragma acc localaccess(y) stride(1)
#pragma acc parallel loop copyin(x[0:n]) copy(y[0:n])
  for (int i = 1; i < n; i++) y[i] = x[i] + x[i - 1];
}
