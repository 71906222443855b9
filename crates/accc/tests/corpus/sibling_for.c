/* Two sibling inner loops declare the same induction variable: both `j`s
   are read, so both are captured as kernel parameters. */
void sibling_for(int n, int m, double *x, double *y) {
#pragma acc parallel loop copyin(x[0:n*m]) copy(y[0:n])
  for (int i = 0; i < n; i++) {
    double s = 0.0;
    for (int j = 0; j < m; j++) { s += x[i*m + j]; }
    for (int j = 0; j < m; j++) { s += 2.0 * x[i*m + j]; }
    y[i] = s;
  }
}
